(* The LBR collector as it stood before its predictor probed each
   table once per branch, kept here only as the oracle that
   [Perfmon.Lbr.consume] must reproduce. The predictor reads a state
   with one lookup and writes it back with another, and saturates with
   the polymorphic [min] and [max]; its tables are plain [Hashtbl]s,
   which only answer lookups, so their order reaches nothing. The ring
   and the sampling are [Perfmon.Lbr]'s, record for record. *)

let depth = 32

type t = {
  period : int;
  ring_src : int array;
  ring_dst : int array;
  ring_mis : bool array;
  mutable head : int;
  mutable filled : int;
  mutable since_sample : int;
  cond_state : (int, int) Hashtbl.t;
  ind_last : (int, int) Hashtbl.t;
  profile : Perfmon.Lbr.profile;
}

let create (config : Perfmon.Lbr.config) profile =
  {
    period = config.period;
    ring_src = Array.make depth 0;
    ring_dst = Array.make depth 0;
    ring_mis = Array.make depth false;
    head = 0;
    filled = 0;
    since_sample = 0;
    cond_state = Hashtbl.create 1024;
    ind_last = Hashtbl.create 256;
    profile;
  }

let sample c =
  let p = c.profile in
  p.num_samples <- p.num_samples + 1;
  let n = c.filled in
  let start = (c.head - n + (2 * depth)) mod depth in
  let prev_dst = ref (-1) in
  for k = 0 to n - 1 do
    let i = (start + k) mod depth in
    p.num_records <- p.num_records + 1;
    let src = c.ring_src.(i) and dst = c.ring_dst.(i) in
    Perfmon.Lbr.add_pair p.branches ~src ~dst 1;
    if c.ring_mis.(i) then Perfmon.Lbr.add_pair p.mispredicts ~src ~dst 1;
    if !prev_dst >= 0 && src >= !prev_dst then
      Perfmon.Lbr.add_pair p.ranges ~src:!prev_dst ~dst:src 1;
    prev_dst := dst
  done

let find_default tbl ~default key = Option.value ~default (Hashtbl.find_opt tbl key)

(* [kindc] is the dense Event.kind_to_int code (0 = Cond, 2 = Indirect). *)
let predict c ~src ~dst ~kindc ~taken =
  if kindc = 0 then begin
    let st = find_default c.cond_state ~default:1 src in
    let predicted_taken = st >= 2 in
    Hashtbl.replace c.cond_state src (if taken then min 3 (st + 1) else max 0 (st - 1));
    predicted_taken <> taken
  end
  else if kindc = 2 then begin
    let last = find_default c.ind_last ~default:(-1) src in
    Hashtbl.replace c.ind_last src dst;
    last <> dst
  end
  else false

let on_branch c ~src ~dst ~kindc ~taken =
  let mispredicted = predict c ~src ~dst ~kindc ~taken in
  if taken then begin
    c.ring_src.(c.head) <- src;
    c.ring_dst.(c.head) <- dst;
    c.ring_mis.(c.head) <- mispredicted;
    c.head <- (c.head + 1) mod depth;
    if c.filled < depth then c.filled <- c.filled + 1;
    c.since_sample <- c.since_sample + 1;
    if c.since_sample >= c.period then begin
      c.since_sample <- 0;
      sample c
    end
  end

let consume c (tape : Exec.Event.tape) =
  for i = 0 to tape.len - 1 do
    if Bytes.get tape.tags i = Exec.Event.tag_branch then begin
      let meta = tape.c.(i) in
      on_branch c ~src:tape.a.(i) ~dst:tape.b.(i) ~kindc:(meta lsr 1) ~taken:(meta land 1 = 1)
    end
  done
