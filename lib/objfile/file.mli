(** A relocatable object file: the unit the build system compiles, caches
    and the linker consumes. *)

type t = private {
  name : string;  (** e.g. ["s_1.o"]; derived from the compilation unit. *)
  unit_name : string;  (** The compilation unit it was produced from. *)
  sections : Section.t list;
  has_inline_asm : bool;
      (** Object contains hand-written assembly (a disassembly hazard). *)
  digest : Support.Digesting.t;
      (** Content digest of the fields above, computed once by {!make}, as
          an ELF object carries its build-id note: the name, unit name and
          inline-asm flag, then each section's name, kind, alignment,
          symbol and size, joined by ['|'] and [':']. The build cache
          records it at store time and verified reads compare against it.
          The type is private, so no object holds a digest that does not
          match it. *)
}

val make : name:string -> unit_name:string -> ?has_inline_asm:bool -> Section.t list -> t

(** [total_size o] sums all section sizes (the object's storage cost in
    the artifact cache). *)
val total_size : t -> int
