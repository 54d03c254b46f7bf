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

(** [text_sections o] in declaration order. *)
val text_sections : t -> Section.t list

(** [find_section o name] looks a section up by name. *)
val find_section : t -> string -> Section.t option

(** [defined_symbols o] lists (symbol, section name) for every text
    section carrying a symbol. *)
val defined_symbols : t -> (string * string) list

(** [size_by_kind o kind] sums the sizes of sections of [kind]. *)
val size_by_kind : t -> Section.kind -> int

(** [total_size o] sums all section sizes (the object's storage cost in
    the artifact cache). *)
val total_size : t -> int

(** [num_relocations o] counts symbolic branch/call sites over all text
    sections plus 2 DWARF range relocations per extra text section
    (paper §4.3). *)
val num_relocations : t -> int

(** [num_text_sections o] counts text sections (one per cluster). *)
val num_text_sections : t -> int
