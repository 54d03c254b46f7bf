type params = { sets : int; ways : int; line_bytes : int }

let l1i_params = { sets = 64; ways = 8; line_bytes = 64 }

let l2_params = { sets = 1024; ways = 16; line_bytes = 64 }

type t = {
  ways : int;
  tags : int array;
      (** [sets * ways]; each set holds its lines most recent first,
          -1 = empty way. *)
  line_shift : int;
  set_mask : int;
}

let log2 v =
  let rec go n acc = if n <= 1 then acc else go (n lsr 1) (acc + 1) in
  go v 0

let create (p : params) =
  {
    ways = p.ways;
    tags = Array.make (p.sets * p.ways) (-1);
    line_shift = log2 p.line_bytes;
    set_mask = p.sets - 1;
  }

(* The way in [w..last] holding [ln], or -1. Top-level with annotated
   arguments so the probe allocates nothing: a local closure would be
   built on every call, and an unannotated [=] becomes [caml_equal]. *)
let rec find (tags : int array) (ln : int) (w : int) (last : int) : int =
  if w > last then -1
  else if Array.unsafe_get tags w = ln then w
  else find tags ln (w + 1) last

(* Move-to-front LRU: a hit at way [w] shifts the ways before it down
   by one, a miss drops the last way. The set always holds its [ways]
   most recently used distinct lines, which is exactly what
   least-recently-used eviction keeps. *)
let access t addr =
  let ln = addr lsr t.line_shift in
  let tags = t.tags in
  let base = (ln land t.set_mask) * t.ways in
  if Array.unsafe_get tags base = ln then true
  else begin
    let last = base + t.ways - 1 in
    let hit = find tags ln (base + 1) last in
    for w = (if hit < 0 then last else hit) downto base + 1 do
      Array.unsafe_set tags w (Array.unsafe_get tags (w - 1))
    done;
    Array.unsafe_set tags base ln;
    hit >= 0
  end

let reset t = Array.fill t.tags 0 (Array.length t.tags) (-1)
