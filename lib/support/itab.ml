(* Flat open-addressing int -> int hash table.

   The profile hot path bumps one counter per retired taken branch;
   stdlib [Hashtbl] costs a bucket cons per insert and an option per
   lookup, and with tuple keys another allocation per probe. This table
   keeps keys and values in two plain int arrays (linear probing,
   power-of-two capacity, load factor <= 1/2), so steady-state bumps
   allocate nothing.

   Keys must be >= 0 (packed addresses and addresses are); [min_int]
   marks an empty slot. Iteration is in slot order, which is a
   deterministic function of the insertion sequence — the same contract
   stdlib [Hashtbl] gave the order-robust consumers. *)

type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable mask : int;  (* capacity - 1; capacity is a power of two *)
  mutable size : int;
}

let empty_key = min_int

(* Multiplicative mixer (62-bit-safe odd constant) so dense address keys
   spread over the low bits the mask keeps. *)
let mix k =
  let h = k lxor (k lsr 31) in
  let h = h * 0x3C79AC492BA7B653 in
  h lxor (h lsr 29)

let capacity_for n =
  let rec go c = if c >= n then c else go (c * 2) in
  go 8

let create n =
  let cap = capacity_for (max 8 (2 * n)) in
  { keys = Array.make cap empty_key; vals = Array.make cap 0; mask = cap - 1; size = 0 }

let length t = t.size

(* Slot holding [key], or the empty slot where it would go. *)
let rec probe keys mask key i =
  let k = Array.unsafe_get keys i in
  if k = key || k = empty_key then i else probe keys mask key ((i + 1) land mask)

let find_slot t key = probe t.keys t.mask key (mix key land t.mask)

let grow t =
  let okeys = t.keys and ovals = t.vals in
  let cap = (t.mask + 1) * 2 in
  t.keys <- Array.make cap empty_key;
  t.vals <- Array.make cap 0;
  t.mask <- cap - 1;
  for i = 0 to Array.length okeys - 1 do
    let k = Array.unsafe_get okeys i in
    if k <> empty_key then begin
      let j = find_slot t k in
      t.keys.(j) <- k;
      t.vals.(j) <- ovals.(i)
    end
  done

let add t key delta =
  if key < 0 then invalid_arg "Itab.add: negative key";
  let i = find_slot t key in
  if Array.unsafe_get t.keys i = empty_key then begin
    t.keys.(i) <- key;
    t.vals.(i) <- delta;
    t.size <- t.size + 1;
    if 2 * t.size > t.mask then grow t
  end
  else t.vals.(i) <- t.vals.(i) + delta

let slot t ~default key =
  if key < 0 then invalid_arg "Itab.slot: negative key";
  let i = find_slot t key in
  if Array.unsafe_get t.keys i = empty_key then begin
    t.keys.(i) <- key;
    t.vals.(i) <- default;
    t.size <- t.size + 1;
    if 2 * t.size > t.mask then begin
      grow t;
      find_slot t key
    end
    else i
  end
  else i

let slot_value t i = t.vals.(i)

let set_slot t i v = t.vals.(i) <- v

let find_default t ~default key =
  if key < 0 then default
  else begin
    let i = find_slot t key in
    if Array.unsafe_get t.keys i = empty_key then default else Array.unsafe_get t.vals i
  end

let find t key = find_default t ~default:0 key

let iter f t =
  let keys = t.keys and vals = t.vals in
  for i = 0 to Array.length keys - 1 do
    let k = Array.unsafe_get keys i in
    if k <> empty_key then f k (Array.unsafe_get vals i)
  done

let fold f t init =
  let acc = ref init in
  iter (fun k v -> acc := f k v !acc) t;
  !acc

let sorted_items t =
  let a = Array.make t.size (0, 0) in
  let n = ref 0 in
  iter
    (fun k v ->
      a.(!n) <- (k, v);
      incr n)
    t;
  Array.sort compare a;
  a
