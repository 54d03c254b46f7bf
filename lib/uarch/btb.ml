type params = { entries : int; ways : int }

let skylake = { entries = 4096; ways = 4 }

type t = { cache : Cache.t }

(* Reuse the set-associative machinery with 1-byte "lines": the tag is
   the branch source address itself. *)
let create p =
  if p.ways < 1 || p.entries mod p.ways <> 0 then
    invalid_arg (Printf.sprintf "Btb.create: entries=%d ways=%d" p.entries p.ways);
  { cache = Cache.create { Cache.sets = p.entries / p.ways; ways = p.ways; line_bytes = 1 } }

let taken t ~src = not (Cache.access t.cache src)

