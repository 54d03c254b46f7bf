(** A whole program: a set of compilation units and a main entry point.

    Function names are globally unique (monorepo-style single namespace);
    {!make} validates that and that all call targets resolve. *)

type t

val make : name:string -> main:string -> Cunit.t list -> t

val name : t -> string

val main : t -> string

val units : t -> Cunit.t list

(** [find_func t fname] resolves a function by name. *)
val find_func : t -> string -> Func.t option

(** [find_func_exn t fname] like {!find_func} but raises [Not_found]. *)
val find_func_exn : t -> string -> Func.t

(** [unit_of_func t fname] is the name of the compilation unit defining
    [fname]. *)
val unit_of_func : t -> string -> string option

(** [iter_funcs t f] applies [f] to every function, in unit order. *)
val iter_funcs : t -> (Func.t -> unit) -> unit

(** [fold_funcs t init f] folds over every function in unit order. *)
val fold_funcs : t -> 'a -> ('a -> Func.t -> 'a) -> 'a

val num_funcs : t -> int

val num_blocks : t -> int

(** [code_bytes t] sums function body bytes over the program. *)
val code_bytes : t -> int
