type params = { entries_4k : int; ways_4k : int; entries_2m : int }

let skylake = { entries_4k = 128; ways_4k = 8; entries_2m = 8 }

(* Only the side the text is mapped with is ever looked up, so only
   that one is built: 4K is set-associative, 2M one fully associative
   set. *)
type t = { cache : Cache.t; page_bits : int }

let create ?(page_scale_bits = 0) p ~hugepages =
  if p.ways_4k < 1 || p.entries_4k mod p.ways_4k <> 0 || p.entries_2m < 1 then
    invalid_arg
      (Printf.sprintf "Tlb.create: entries_4k=%d ways_4k=%d entries_2m=%d" p.entries_4k p.ways_4k
         p.entries_2m);
  (* Pressure-preserving scaling: programs generated at 1/2^k of their
     real size keep realistic TLB pressure when page reach shrinks by
     the same factor. Clamped so pages stay larger than cache lines. *)
  let page_bits, sets, ways =
    if hugepages then (max 14 (21 - page_scale_bits), 1, p.entries_2m)
    else (max 9 (12 - page_scale_bits), p.entries_4k / p.ways_4k, p.ways_4k)
  in
  { cache = Cache.create { Cache.sets; ways; line_bytes = 1 lsl page_bits }; page_bits }

let page t addr = addr lsr t.page_bits

let access t addr = Cache.access t.cache addr

let reset t = Cache.reset t.cache
