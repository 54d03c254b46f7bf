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

  let equal a b = a = b
end

module Target = struct
  type t = Block of { func : string; block : int } | Func of string

  let equal a b =
    match a, b with
    | Block a, Block b -> String.equal a.func b.func && a.block = b.block
    | Func a, Func b -> String.equal a b
    | Block _, Func _ | Func _, Block _ -> false

  let compare a b =
    match a, b with
    | Block a, Block b ->
      let c = String.compare a.func b.func in
      if c <> 0 then c else Int.compare a.block b.block
    | Func a, Func b -> String.compare a b
    | Block _, Func _ -> -1
    | Func _, Block _ -> 1

  let symbol = function
    | Block { func; block } -> Printf.sprintf "%s#%d" func block
    | Func f -> f

  let to_string = symbol
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

let is_branch = function
  | Jcc _ | Jmp _ -> true
  | Alu _ | Load _ | Store _ | Call _ | IndirectCall | IndirectJmp | Ret | Prefetch | Nop _
  | InlineData _ -> false

let is_control_transfer = function
  | Jcc _ | Jmp _ | Call _ | IndirectCall | IndirectJmp | Ret -> true
  | Alu _ | Load _ | Store _ | Prefetch | Nop _ | InlineData _ -> false

let branch_target = function
  | Jcc { target; _ } | Jmp { target; _ } | Call target -> Some target
  | Alu _ | Load _ | Store _ | IndirectCall | IndirectJmp | Ret | Prefetch | Nop _
  | InlineData _ -> None

let with_target i target =
  match i with
  | Jcc j -> Jcc { j with target }
  | Jmp j -> Jmp { j with target }
  | Call _ -> Call target
  | Alu _ | Load _ | Store _ | IndirectCall | IndirectJmp | Ret | Prefetch | Nop _
  | InlineData _ ->
    invalid_arg "Isa.with_target: not a branching instruction"

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
