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

let callees = function
  | DirectCall f -> [ (f, 1.0) ]
  | VirtualCall { callees } -> Array.to_list callees
  | Compute _ | MemLoad _ | DelinquentLoad _ | MemStore _ | JumpTableData _ -> []

module D = Support.Digesting

let tagged st tag n close = D.add_string st tag; D.add_int st n; D.add_string st close

(* The bytes [pp] prints, fed straight into a digest. *)
let feed st = function
  | Compute n -> tagged st "compute<" n ">"
  | MemLoad n -> tagged st "load<" n ">"
  | DelinquentLoad { bytes; miss_prob } ->
    tagged st "load.miss<" bytes ",p="; D.add_fixed2 st miss_prob; D.add_char st '>'
  | MemStore n -> tagged st "store<" n ">"
  | DirectCall f -> D.add_string st "call "; D.add_string st f
  | VirtualCall { callees } -> tagged st "vcall<" (Array.length callees) " targets>"
  | JumpTableData n -> tagged st "jumptable<" n ">"

let pp fmt = function
  | Compute n -> Format.fprintf fmt "compute<%d>" n
  | MemLoad n -> Format.fprintf fmt "load<%d>" n
  | DelinquentLoad { bytes; miss_prob } ->
    Format.fprintf fmt "load.miss<%d,p=%.2f>" bytes miss_prob
  | MemStore n -> Format.fprintf fmt "store<%d>" n
  | DirectCall f -> Format.fprintf fmt "call %s" f
  | VirtualCall { callees } -> Format.fprintf fmt "vcall<%d targets>" (Array.length callees)
  | JumpTableData n -> Format.fprintf fmt "jumptable<%d>" n
