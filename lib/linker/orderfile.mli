(** Symbol ordering files ([--symbol-ordering-file], the [ld_prof.txt]
    of Fig 1): one symbol per line. Modern linkers reading one ignore
    ['#'] comments and blank lines and keep the first of duplicates.
    The tool writes these files; nothing here reads them back. *)

(** [to_text syms] renders an ordering file with a header comment. *)
val to_text : string list -> string
