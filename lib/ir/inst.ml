type t =
  | Compute of int
  | MemLoad of int
  | DelinquentLoad of { bytes : int; miss_prob : float }
  | MemStore of int
  | DirectCall of string
  | VirtualCall of { callees : (string * float) array }
  | JumpTableData of int

let byte_size = function
  | Compute n | MemLoad n | MemStore n | JumpTableData n -> n
  | DelinquentLoad { bytes; _ } -> bytes
  | DirectCall _ -> 5
  | VirtualCall _ -> 3

let is_call = function
  | DirectCall _ | VirtualCall _ -> true
  | Compute _ | MemLoad _ | DelinquentLoad _ | MemStore _ | JumpTableData _ -> false

let callees = function
  | DirectCall f -> [ (f, 1.0) ]
  | VirtualCall { callees } -> Array.to_list callees
  | Compute _ | MemLoad _ | DelinquentLoad _ | MemStore _ | JumpTableData _ -> []

let render b i =
  let tagged tag n close =
    Buffer.add_string b tag;
    Text.add_int b n;
    Buffer.add_string b close
  in
  match i with
  | Compute n -> tagged "compute<" n ">"
  | MemLoad n -> tagged "load<" n ">"
  | DelinquentLoad { bytes; miss_prob } ->
    tagged "load.miss<" bytes (Printf.sprintf ",p=%.2f>" miss_prob)
  | MemStore n -> tagged "store<" n ">"
  | DirectCall f ->
    Buffer.add_string b "call ";
    Buffer.add_string b f
  | VirtualCall { callees } -> tagged "vcall<" (Array.length callees) " targets>"
  | JumpTableData n -> tagged "jumptable<" n ">"

let pp fmt i =
  let b = Buffer.create 16 in
  render b i;
  Format.pp_print_string fmt (Buffer.contents b)
