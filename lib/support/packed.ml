(* Packed (src, dst) address-pair keys.

   Profile tables index on pairs of text-segment addresses. A tuple key
   costs one 3-word allocation per lookup *and* per insertion; packing
   both halves into one immediate int makes the pair hashable and
   comparable for free. 31 bits per half covers any text segment we can
   simulate (2 GiB), and 62 bits fit OCaml's 63-bit native int with the
   sign bit left clear. *)

let addr_bits = 31

let max_addr = (1 lsl addr_bits) - 1

let pack ~src ~dst =
  if src < 0 || src > max_addr || dst < 0 || dst > max_addr then
    invalid_arg
      (Printf.sprintf "Packed.pack: address out of range (src=%d dst=%d max=%d)" src dst
         max_addr);
  (src lsl addr_bits) lor dst

(* Unchecked variant for hot loops whose inputs are already image
   addresses (validated at build time). *)
let pack_unsafe ~src ~dst = (src lsl addr_bits) lor dst

let src key = key lsr addr_bits

let dst key = key land max_addr

(* [Hashtbl.hash (src key, dst key)], replayed without the tuple: the
   runtime's MurmurHash3 steps over the block header (tag 0, two
   fields) and then each field as a tagged int. Both halves are below
   2^31, so a tagged half fits 32 bits and mixes as itself. *)
let mask32 = 0xFFFF_FFFF

let[@inline] rotl32 x n = ((x lsl n) lor (x lsr (32 - n))) land mask32

let[@inline] mix h d =
  let d = rotl32 ((d * 0xcc9e2d51) land mask32) 15 in
  let d = (d * 0x1b873593) land mask32 in
  (((rotl32 (h lxor d) 13) * 5) + 0xe6546b64) land mask32

let pair_header = mix 0 (2 lsl 10)

let tuple_hash key =
  let h = mix (mix pair_header ((2 * src key) + 1)) ((2 * dst key) + 1) in
  let h = h lxor (h lsr 16) in
  let h = (h * 0x85ebca6b) land mask32 in
  let h = h lxor (h lsr 13) in
  let h = (h * 0xc2b2ae35) land mask32 in
  (h lxor (h lsr 16)) land 0x3FFF_FFFF

module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash = tuple_hash
end)
