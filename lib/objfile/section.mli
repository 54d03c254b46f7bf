(** A section: a contiguous range of bytes the linker operates on as a
    single unit (paper §4). *)

type kind =
  | Text  (** Executable code. *)
  | Bb_addr_map  (** Profile-mapping metadata, not loaded at run time. *)
  | Eh_frame  (** Call frame information (CFI FDEs, §4.4). *)
  | Rela  (** Static relocations retained in the output. *)
  | Rodata
  | Data
  | Debug  (** DWARF (ranges made discontiguous-capable, §4.3). *)
  | Symtab  (** Symbol table + string table in the linked output. *)

type contents =
  | Code of Fragment.t
  | Map of Bbmap.t
  | Raw of int  (** Opaque payload of the given byte size. *)

type t = {
  name : string;  (** e.g. [".text.foo"], [".text.split.foo.cold"]. *)
  kind : kind;
  align : int;
  symbol : string option;
      (** Symbol bound at offset 0 (the cluster symbol for text). *)
  contents : contents;
}

val make : name:string -> kind:kind -> ?align:int -> ?symbol:string -> contents -> t

(** [size s] is the byte size of the section under current encodings. *)
val size : t -> int

(** [is_text s] is true for executable sections. *)
val is_text : t -> bool

val kind_to_string : kind -> string
