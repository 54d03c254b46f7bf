type branch_kind = Cond | Uncond | Indirect | Call | Ret

(* Flat event tape: the engine's zero-allocation transport. Each event
   is one tag byte plus three int operands written into preallocated
   arrays; every consumer drains the tape in a monomorphic loop. *)

let tape_capacity = 8192

type tape = {
  tags : Bytes.t;
  a : int array;
  b : int array;
  c : int array;
  mutable len : int;
}

let tag_fetch = '\000'

let tag_branch = '\001'

let tag_dmiss = '\002'

let tag_request = '\003'

let create_tape () =
  {
    tags = Bytes.create tape_capacity;
    a = Array.make tape_capacity 0;
    b = Array.make tape_capacity 0;
    c = Array.make tape_capacity 0;
    len = 0;
  }

let kind_to_int = function Cond -> 0 | Uncond -> 1 | Indirect -> 2 | Call -> 3 | Ret -> 4

(* Branch operand [c] encoding: kind in the high bits, taken in bit 0. *)
let encode_branch_meta ~kind ~taken = (kind_to_int kind lsl 1) lor (if taken then 1 else 0)

let null (_ : tape) = ()
