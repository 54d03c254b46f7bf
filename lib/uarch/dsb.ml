type params = { windows : int; ways : int; window_bytes : int }

let skylake = { windows = 256; ways = 8; window_bytes = 32 }

type t = { cache : Cache.t }

let create p =
  if p.ways < 1 || p.windows mod p.ways <> 0 then
    invalid_arg (Printf.sprintf "Dsb.create: windows=%d ways=%d" p.windows p.ways);
  { cache = Cache.create { Cache.sets = p.windows / p.ways; ways = p.ways; line_bytes = p.window_bytes } }

let access t addr = Cache.access t.cache addr

let reset t = Cache.reset t.cache
