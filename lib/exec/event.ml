type branch_kind = Cond | Uncond | Indirect | Call | Ret

type sink = {
  on_fetch : int -> int -> int -> unit;
  on_branch : src:int -> dst:int -> kind:branch_kind -> taken:bool -> unit;
  on_dmiss : src:int -> unit;
  on_request : int -> unit;
}

let null =
  {
    on_fetch = (fun _ _ _ -> ());
    on_branch = (fun ~src:_ ~dst:_ ~kind:_ ~taken:_ -> ());
    on_dmiss = (fun ~src:_ -> ());
    on_request = (fun _ -> ());
  }

(* Flat event tape: the engine's zero-allocation transport. Each event
   is one tag byte plus three int operands written into preallocated
   arrays; hot consumers drain the tape in monomorphic loops, and
   [replay] adapts a full tape back onto a closure sink in emission
   order, so both paths observe the identical event stream. *)

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

let kind_of_int = function
  | 0 -> Cond
  | 1 -> Uncond
  | 2 -> Indirect
  | 3 -> Call
  | 4 -> Ret
  | n -> invalid_arg (Printf.sprintf "Event.kind_of_int: %d" n)

(* Branch operand [c] encoding: kind in the high bits, taken in bit 0. *)
let encode_branch_meta ~kind ~taken = (kind_to_int kind lsl 1) lor (if taken then 1 else 0)

let replay tape sink =
  let tags = tape.tags and a = tape.a and b = tape.b and c = tape.c in
  for i = 0 to tape.len - 1 do
    match Bytes.unsafe_get tags i with
    | '\000' ->
      sink.on_fetch (Array.unsafe_get a i) (Array.unsafe_get b i) (Array.unsafe_get c i)
    | '\001' ->
      let meta = Array.unsafe_get c i in
      sink.on_branch ~src:(Array.unsafe_get a i) ~dst:(Array.unsafe_get b i)
        ~kind:(kind_of_int (meta lsr 1))
        ~taken:(meta land 1 = 1)
    | '\002' -> sink.on_dmiss ~src:(Array.unsafe_get a i)
    | _ -> sink.on_request (Array.unsafe_get a i)
  done
