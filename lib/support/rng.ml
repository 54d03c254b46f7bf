type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

(* Inlined so callers see the whole Int64 chain and the intermediates
   stay unboxed — this hash runs once per simulated branch decision. *)
let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = seed }

let fnv64 s =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    s;
  !h

let of_string s = create (fnv64 s)

let next t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t tag =
  (* Derive a child state from the parent state and tag without advancing
     the parent, so sibling streams are independent of iteration order. *)
  let child = mix64 (Int64.add t.state (Int64.of_int ((tag * 2) + 1))) in
  create child

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Keep 62 bits so the value stays non-negative in OCaml's native int. *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

let float t =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  v /. 9007199254740992.0 (* 2^53 *)

let bool t p = float t < p

let geometric t p =
  let p = if p <= 0.0 then 1e-9 else if p > 1.0 then 1.0 else p in
  let rec loop n = if n >= 10_000 || bool t p then n else loop (n + 1) in
  loop 1

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choose: empty array";
  arr.(int t (Array.length arr))

let[@inline] hash_float k1 k2 =
  let h = mix64 (Int64.add (Int64.of_int k1) (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (k2 + 1)))) in
  Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.0

let[@inline] hash_choice k1 k2 p = hash_float k1 k2 < p

(* Weighted pick: first index whose cumulative weight exceeds the draw,
   else the last. Lives next to [hash_float] on purpose — intra-module
   inlining keeps the draw unboxed; a cross-module caller would box the
   returned float once per pick. *)
let hash_pick k1 k2 idx cum =
  let r = hash_float k1 k2 in
  let n = Array.length idx in
  let i = ref 0 in
  while !i < n - 1 && r >= Array.unsafe_get cum !i do
    incr i
  done;
  Array.unsafe_get idx !i

(* Same draw and walk as [hash_pick], but returns the position instead
   of an element — for callers whose choices live in a parallel array
   of [n] entries. *)
let hash_pick_pos k1 k2 cum n =
  let r = hash_float k1 k2 in
  let i = ref 0 in
  while !i < n - 1 && r >= Array.unsafe_get cum !i do
    incr i
  done;
  !i
