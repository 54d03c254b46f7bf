(** A relocatable object file: the unit the build system compiles, caches
    and the linker consumes. *)

type t = {
  name : string;  (** e.g. ["s_1.o"]; derived from the compilation unit. *)
  unit_name : string;  (** The compilation unit it was produced from. *)
  sections : Section.t list;
  has_inline_asm : bool;
      (** Object contains hand-written assembly (a disassembly hazard). *)
}

val make : name:string -> unit_name:string -> ?has_inline_asm:bool -> Section.t list -> t

(** [total_size o] sums all section sizes (the object's storage cost in
    the artifact cache). *)
val total_size : t -> int
