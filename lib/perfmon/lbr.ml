type config = { period : int; buffer_depth : int }

let default_config = { period = 101; buffer_depth = 32 }

(* Address-pair tables are flat int->int maps over packed
   (src lsl 31) lor dst keys (Support.Packed): one immediate key per
   record instead of a heap tuple per bump. *)
type profile = {
  branches : Support.Itab.t;
  ranges : Support.Itab.t;
  mispredicts : Support.Itab.t;
  mutable num_samples : int;
  mutable num_records : int;
}

let create_profile () =
  {
    branches = Support.Itab.create 4096;
    ranges = Support.Itab.create 4096;
    mispredicts = Support.Itab.create 1024;
    num_samples = 0;
    num_records = 0;
  }

let add_pair tbl ~src ~dst n = Support.Itab.add tbl (Support.Packed.pack ~src ~dst) n

let find_pair tbl ~src ~dst =
  if src < 0 || src > Support.Packed.max_addr || dst < 0 || dst > Support.Packed.max_addr
  then 0
  else Support.Itab.find tbl (Support.Packed.pack_unsafe ~src ~dst)

let iter_pairs f tbl =
  Support.Itab.iter
    (fun key n -> f ~src:(Support.Packed.src key) ~dst:(Support.Packed.dst key) n)
    tbl

let pair_total tbl = Support.Itab.fold (fun _ n acc -> acc + n) tbl 0

(* Collector state. The rings and predictor tables are flat arrays and
   int tables, so steady-state collection allocates nothing. Per-record
   MISPRED bit, as real LBR hardware stores it: conditional direction
   by a 2-bit saturating counter per branch address, indirect-jump
   targets by the last target seen at the source; unconditional direct
   transfers never mispredict. *)
type collector = {
  period : int;
  depth : int;
  ring_src : int array;
  ring_dst : int array;
  ring_mis : bool array;
  mutable head : int;  (* next write position *)
  mutable filled : int;
  mutable since_sample : int;
  cond_state : Support.Itab.t;
  ind_last : Support.Itab.t;
  profile : profile;
}

let collector_state config profile =
  let depth = config.buffer_depth in
  {
    period = config.period;
    depth;
    ring_src = Array.make depth 0;
    ring_dst = Array.make depth 0;
    ring_mis = Array.make depth false;
    head = 0;
    filled = 0;
    since_sample = 0;
    cond_state = Support.Itab.create 1024;
    ind_last = Support.Itab.create 256;
    profile;
  }

let sample c =
  let p = c.profile in
  p.num_samples <- p.num_samples + 1;
  let n = c.filled in
  (* Oldest-to-newest traversal of the ring. *)
  let start = (c.head - n + (2 * c.depth)) mod c.depth in
  let prev_dst = ref (-1) in
  for k = 0 to n - 1 do
    let i = (start + k) mod c.depth in
    p.num_records <- p.num_records + 1;
    let src = c.ring_src.(i) and dst = c.ring_dst.(i) in
    add_pair p.branches ~src ~dst 1;
    if c.ring_mis.(i) then add_pair p.mispredicts ~src ~dst 1;
    if !prev_dst >= 0 && src >= !prev_dst then add_pair p.ranges ~src:!prev_dst ~dst:src 1;
    prev_dst := dst
  done

(* [kindc] is the dense Event.kind_to_int code (0 = Cond, 2 = Indirect). *)
let[@inline] predict c ~src ~dst ~kindc ~taken =
  if kindc = 0 then begin
    let st = Support.Itab.find_default c.cond_state ~default:1 src in
    let predicted_taken = st >= 2 in
    Support.Itab.set c.cond_state src (if taken then min 3 (st + 1) else max 0 (st - 1));
    predicted_taken <> taken
  end
  else if kindc = 2 then begin
    let last = Support.Itab.find_default c.ind_last ~default:(-1) src in
    Support.Itab.set c.ind_last src dst;
    last <> dst
  end
  else false

let[@inline] on_branch_coded c ~src ~dst ~kindc ~taken =
  let mispredicted = predict c ~src ~dst ~kindc ~taken in
  if taken then begin
    c.ring_src.(c.head) <- src;
    c.ring_dst.(c.head) <- dst;
    c.ring_mis.(c.head) <- mispredicted;
    c.head <- (c.head + 1) mod c.depth;
    if c.filled < c.depth then c.filled <- c.filled + 1;
    c.since_sample <- c.since_sample + 1;
    if c.since_sample >= c.period then begin
      c.since_sample <- 0;
      sample c
    end
  end

(* Direct tape drain: only branch events matter to the LBR. *)
let consume c (tape : Exec.Event.tape) =
  let tags = tape.Exec.Event.tags
  and a = tape.Exec.Event.a
  and b = tape.Exec.Event.b
  and m = tape.Exec.Event.c in
  for i = 0 to tape.Exec.Event.len - 1 do
    if Bytes.unsafe_get tags i = Exec.Event.tag_branch then begin
      let meta = Array.unsafe_get m i in
      on_branch_coded c ~src:(Array.unsafe_get a i) ~dst:(Array.unsafe_get b i)
        ~kindc:(meta lsr 1)
        ~taken:(meta land 1 = 1)
    end
  done

let collector config profile =
  let c = collector_state config profile in
  {
    Exec.Event.on_fetch = (fun _ _ _ -> ());
    on_branch =
      (fun ~src ~dst ~kind ~taken ->
        on_branch_coded c ~src ~dst ~kindc:(Exec.Event.kind_to_int kind) ~taken);
    on_dmiss = (fun ~src:_ -> ());
    on_request = (fun _ -> ());
  }

let raw_bytes config profile = profile.num_samples * ((24 * config.buffer_depth) + 64)

let distinct_edges profile =
  Support.Itab.length profile.branches + Support.Itab.length profile.ranges

let branch_total profile = pair_total profile.branches

let mispredict_total profile = pair_total profile.mispredicts

let mispredict_count profile ~src ~dst = find_pair profile.mispredicts ~src ~dst

let mispredict_rate profile ~src ~dst =
  match find_pair profile.branches ~src ~dst with
  | 0 -> 0.0
  | n -> float_of_int (mispredict_count profile ~src ~dst) /. float_of_int n

let merge_table dst src = Support.Itab.iter (fun k v -> Support.Itab.add dst k v) src

let merge a b =
  merge_table a.branches b.branches;
  merge_table a.ranges b.ranges;
  merge_table a.mispredicts b.mispredicts;
  a.num_samples <- a.num_samples + b.num_samples;
  a.num_records <- a.num_records + b.num_records
