type params = { windows : int; ways : int; window_bytes : int }

let skylake = { windows = 256; ways = 8; window_bytes = 32 }

(* One entry per 64-byte line standing for both of its 32-byte windows,
   in half the window sets; [dsb.mli] has the exactness argument. *)
type t = { cache : Cache.t }

let create p =
  let sets = if p.ways < 1 || p.windows mod p.ways <> 0 then 0 else p.windows / p.ways in
  if sets < 2 || sets land (sets - 1) <> 0 || p.window_bytes <> 32 then
    invalid_arg
      (Printf.sprintf "Dsb.create: windows=%d ways=%d window_bytes=%d" p.windows p.ways
         p.window_bytes);
  { cache = Cache.create { Cache.sets = sets / 2; ways = p.ways; line_bytes = 64 } }

let access t addr = Cache.access t.cache addr

