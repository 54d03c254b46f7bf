(** Text helpers shared by the IR printers' [render] functions. *)

(** [add_int b n] appends [string_of_int n] to [b] without building the
    string. *)
val add_int : Buffer.t -> int -> unit
