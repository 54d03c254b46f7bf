type params = { sets : int; ways : int; line_bytes : int }

let l1i_params = { sets = 64; ways = 8; line_bytes = 64 }

let l2_params = { sets = 1024; ways = 16; line_bytes = 64 }

(* A set's lines, most recent first, are [mru.(s)] then the [ways - 1]
   words of [rest] from [s * (ways - 1)]; -1 marks an empty way. A line
   reaches [rest] only when a miss pushes it out of [mru], so an empty
   [mru.(s)] means set [s] is empty. [rest] stays [||] until the first
   miss on a set that already holds a line (never when [ways = 1]), so
   a cold cache costs one word per set, and a cache whose sets each
   see one line never builds the rest. *)
type t = {
  rest_ways : int;  (** [ways - 1]. *)
  mru : int array;
  mutable rest : int array;
  line_shift : int;
  set_mask : int;
}

let log2 v =
  let rec go n acc = if n <= 1 then acc else go (n lsr 1) (acc + 1) in
  go v 0

let is_pow2 n = n >= 1 && n land (n - 1) = 0

let create (p : params) =
  if not (is_pow2 p.sets && is_pow2 p.line_bytes && p.ways >= 1) then
    invalid_arg
      (Printf.sprintf "Cache.create: sets=%d ways=%d line_bytes=%d" p.sets p.ways p.line_bytes);
  {
    rest_ways = p.ways - 1;
    mru = Array.make p.sets (-1);
    rest = [||];
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

let build_rest t =
  t.rest <- Array.make (Array.length t.mru * t.rest_ways) (-1);
  t.rest

(* Move-to-front LRU: the probed line becomes the MRU line and the old
   MRU line goes to the front of [rest]; on a hit at [rest] way [w] the
   ways before it shift down by one, on a miss the last way drops out.
   The set always holds its [ways] most recently used distinct lines,
   which is exactly what least-recently-used eviction keeps. *)
let access t addr =
  let ln = addr lsr t.line_shift in
  let set = ln land t.set_mask in
  let m = Array.unsafe_get t.mru set in
  if m = ln then true
  else begin
    Array.unsafe_set t.mru set ln;
    if m < 0 || t.rest_ways = 0 then false
    else begin
      let rest = if Array.length t.rest = 0 then build_rest t else t.rest in
      let base = set * t.rest_ways in
      let last = base + t.rest_ways - 1 in
      let hit = find rest ln base last in
      for w = (if hit < 0 then last else hit) downto base + 1 do
        Array.unsafe_set rest w (Array.unsafe_get rest (w - 1))
      done;
      Array.unsafe_set rest base m;
      hit >= 0
    end
  end

let reset t =
  Array.fill t.mru 0 (Array.length t.mru) (-1);
  Array.fill t.rest 0 (Array.length t.rest) (-1)
