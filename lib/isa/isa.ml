module Cond = struct
  type t = Eq | Ne | Lt | Ge | Le | Gt

  let negate = function
    | Eq -> Ne
    | Ne -> Eq
    | Lt -> Ge
    | Ge -> Lt
    | Le -> Gt
    | Gt -> Le

  let to_string = function
    | Eq -> "e"
    | Ne -> "ne"
    | Lt -> "l"
    | Ge -> "ge"
    | Le -> "le"
    | Gt -> "g"
end

module Target = struct
  type t = Block of { func : string; block : int } | Func of string

  let to_string = function
    | Block { func; block } -> Printf.sprintf "%s#%d" func block
    | Func f -> f
end

type encoding = Short | Long

type t =
  | Alu of int
  | Load of int
  | Store of int
  | Jcc of { cond : Cond.t; target : Target.t; encoding : encoding }
  | Jmp of { target : Target.t; encoding : encoding }
  | Call of Target.t
  | IndirectCall
  | IndirectJmp
  | Ret
  | Prefetch
  | Nop of int
  | InlineData of int

let jcc_size = function Short -> 2 | Long -> 6

let jmp_size = function Short -> 2 | Long -> 5

let size = function
  | Alu n | Load n | Store n | Nop n | InlineData n -> n
  | Jcc { encoding; _ } -> jcc_size encoding
  | Jmp { encoding; _ } -> jmp_size encoding
  | Call _ -> 5
  | IndirectCall | IndirectJmp -> 3
  | Prefetch -> 5
  | Ret -> 1

let fits_short offset = offset >= -128 && offset <= 127

let to_string = function
  | Alu n -> Printf.sprintf "alu%d" n
  | Load n -> Printf.sprintf "load%d" n
  | Store n -> Printf.sprintf "store%d" n
  | Jcc { cond; target; encoding } ->
    Printf.sprintf "j%s%s %s" (Cond.to_string cond)
      (match encoding with Short -> "" | Long -> ".l")
      (Target.to_string target)
  | Jmp { target; encoding } ->
    Printf.sprintf "jmp%s %s"
      (match encoding with Short -> "" | Long -> ".l")
      (Target.to_string target)
  | Call t -> Printf.sprintf "call %s" (Target.to_string t)
  | IndirectCall -> "call *r"
  | IndirectJmp -> "jmp *r"
  | Prefetch -> "prefetcht0"
  | Ret -> "ret"
  | Nop n -> Printf.sprintf "nop%d" n
  | InlineData n -> Printf.sprintf ".data %d" n
