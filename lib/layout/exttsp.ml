(* Ext-TSP block reordering: greedy chain merging, the best merge
   retrieved from a priority queue (or a linear rescan, for the
   ablation).

   State that no candidate merge changes is kept, not recomputed:
   - per node: its chain, byte offset and rank there, written once per
     merge for the merged chain's nodes;
   - per chain: its internal edges' distances and gains, and the ranks
     of each edge's ends, computed once when the chain is made;
   - per live chain: its neighbours, in ascending chain id, each with
     the bundle of cross edges between the two. A merge builds the
     merged chain's entries from a's and b's, and in each neighbour
     replaces a and b by the merged chain. Dead chains appear nowhere.
   All of it lives in one workspace per domain ([ws]), flat arrays
   indexed by node, edge and chain id, with each chain's nodes, internal
   edges and neighbours in arenas the live chains share; a call takes
   the workspace and puts it back, so [order] allocates little beyond
   the seeding table below and the list it returns.

   [best_merge] scores every "b inserted at cut c of a" from that state
   alone. The float contract: a cut's score sums edge gains in the order
   reverse(cross), reverse(a.internal), b.internal, which is the merged
   chain's internal order and the order the pinned layouts depend on.

   Ties between equal gains are broken by push order, so the order of
   pushes is part of the output. The first pushes follow the iteration
   order of a table of cross bundles keyed by (min, max) node pairs,
   which [Packed.Tbl] keeps equal to a tuple-keyed [Hashtbl]'s; that
   table is made fresh by each call (a cleared table keeps its grown
   bucket count, which changes the order), for seeding, and the
   neighbour entries take over after. A merge pushes its new pairs in
   ascending neighbour id.

   [best_merge] skips cuts that cannot win, never one that can. The
   skips rest on one fact: floating-point addition, rounded to nearest,
   never decreases when one operand grows. So if x <= y, adding the same
   terms in the same order to both keeps the first sum at most the
   second, and a cut whose running sum after a's edges is no larger than
   the best cut's at that point cannot beat it under the strict [>]:
   - such a cut's b loop is skipped;
   - b++a adds the same a and b terms as a++b, so when a++b is the best
     so far and b++a's cross sum is no larger, b++a is skipped whole;
   - a split cut is skipped whole when a bound on its running sum after
     a's edges is no larger: the real-number sum (its cross sum, plus
     a's gains, minus what the cut loses on the edges it separates) plus
     a bound on the rounding error of every addition involved: 2^-45
     (256 unit roundoffs) per term, times the summed magnitudes, where
     recursive summation loses at most about one unit roundoff per term
     and the estimate a few more.
   A NaN fails every [<=] and disables the skips. Every cut that is
   scored is scored in full, in the contract order, so the chosen cut
   and its score are bit-identical to scoring every cut. *)

type params = {
  forward_window : int;
  backward_window : int;
  fallthrough_weight : float;
  forward_weight : float;
  backward_weight : float;
  max_split_chain : int;
  use_pqueue : bool;
}

let default_params =
  {
    forward_window = 1024;
    backward_window = 640;
    fallthrough_weight = 1.0;
    forward_weight = 0.1;
    backward_weight = 0.1;
    max_split_chain = 24;
    use_pqueue = true;
  }

(* Domain-local so concurrent [order] calls from a pool batch don't
   race; [last_merge_count] reports the calling domain's last run. *)
let merge_count_key : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

let merge_count () = Domain.DLS.get merge_count_key

let last_merge_count () = !(merge_count ())

(* Contribution of one edge given the jump distance in bytes. [dist] is
   (dst_start - src_end): 0 means fall-through. *)
let[@inline] edge_gain p w dist =
  if dist = 0 then p.fallthrough_weight *. w
  else if dist > 0 && dist <= p.forward_window then
    p.forward_weight *. w *. (1.0 -. (float_of_int dist /. float_of_int p.forward_window))
  else if dist < 0 && -dist <= p.backward_window then
    p.backward_weight *. w *. (1.0 -. (float_of_int (-dist) /. float_of_int p.backward_window))
  else 0.0

(* Scratch state for [score_into]: position maps stamped per call, so
   search loops that score many arrangements allocate nothing. *)
type scratch = { pos : int array; end_pos : int array; stamp : int array; mutable cur : int }

let scratch n =
  { pos = Array.make n 0; end_pos = Array.make n 0; stamp = Array.make n (-1); cur = 0 }

let score_into ?(params = default_params) scratch (p : Problem.t) arr =
  let sizes = p.sizes in
  let n = Array.length sizes in
  if Array.length scratch.pos < n then invalid_arg "Exttsp.score: scratch smaller than the problem";
  scratch.cur <- scratch.cur + 1;
  let cur = scratch.cur in
  let pos = scratch.pos and end_pos = scratch.end_pos and stamp = scratch.stamp in
  let off = ref 0 in
  for i = 0 to Array.length arr - 1 do
    let v = Array.unsafe_get arr i in
    if v < 0 || v >= n then
      invalid_arg (Printf.sprintf "Exttsp.score: node %d outside [0, %d)" v n);
    Array.unsafe_set pos v !off;
    off := !off + Array.unsafe_get sizes v;
    Array.unsafe_set end_pos v !off;
    Array.unsafe_set stamp v cur
  done;
  (* The problem's edges, folded left to right: their order is the
     float accumulation order. Edges with an endpoint outside [arr]
     contribute 0. *)
  let acc = ref 0.0 in
  for i = 0 to Array.length p.esrc - 1 do
    let src = Array.unsafe_get p.esrc i and dst = Array.unsafe_get p.edst i in
    if Array.unsafe_get stamp src = cur && Array.unsafe_get stamp dst = cur then
      acc :=
        !acc
        +. edge_gain params (Array.unsafe_get p.ew i)
             (Array.unsafe_get pos dst - Array.unsafe_get end_pos src)
  done;
  !acc

let score ?params ~order (p : Problem.t) =
  score_into ?params (scratch (Array.length p.sizes)) p (Array.of_list order)

(* The workspace of a running [order], one per domain ([spare_ws]).
   Nodes and edges are numbered as in the problem; chains by id
   (0 .. n-1 the singletons, then one fresh id per merge, so below 2n).

   Three arenas hold the variable-length state of the live chains, each
   chain's part a [first, first + len) range: its nodes in order
   ([cn]), its internal edges with their distances, gains and end ranks
   ([ie] .. [idst_rank], an edge by its index in the problem), and its
   neighbours in ascending id with the cross bundle shared with each
   ([nid], [nhead], [ntail]). A merge appends the merged chain's parts
   at each arena's top. Chain ids and arena offsets grow together, so
   when an arena is full, [compact] slides the live parts down in id
   order. The live parts never exceed n nodes, E internal edges (the
   cross edges are the rest of the problem's E) and 2E neighbour
   entries, nor does the merged chain's, so arenas of 2n, 2E and 4E
   always make room after a [compact].

   A cross bundle is a list of edges linked both ways without an
   orientation ([link0]/[link1], -1 at an end), named by its two ends:
   reversing one swaps its ends and joining two links one end of each,
   so neither copies an edge. [best_merge] gathers a bundle's edges
   into [xe] before scoring it. *)
module T = Support.Packed.Tbl

type ws = {
  mutable sizes : int array;  (** The problem's, during a call. *)
  mutable esrc : int array;  (** Its edges, during a call. *)
  mutable edst : int array;
  mutable ew : float array;
  mutable entry : int;
  mutable next_cid : int;
  mutable node_top : int;  (** First free slot of each arena. *)
  mutable edge_top : int;
  mutable nbr_top : int;
  mutable xlen : int;  (** Edges of the bundle [best_merge] last gathered. *)
  (* Per node. *)
  owner : int array;  (** Its chain. *)
  off : int array;  (** Its byte offset in that chain. *)
  rank : int array;  (** Its index in that chain. *)
  sorted : int array;  (** The final chains, in output order. *)
  (* Per edge. *)
  link0 : int array;
  link1 : int array;
  bhead : int array;  (** While seeding: the head of the bundle this edge ends. *)
  xe : int array;  (** The bundle [best_merge] last gathered, last edge first. *)
  sgain : float array;  (** [best_merge]: an edge of a's gain when a cut separates it. *)
  (* Per chain id; a dead chain has [c_len] 0. *)
  c_first : int array;
  c_len : int array;
  c_size : int array;  (** Total code bytes. *)
  c_weight : float array;  (** Total execution count. *)
  c_score : float array;  (** Ext-TSP score of its internal edges. *)
  c_min : int array;  (** Its smallest node. *)
  c_efirst : int array;
  c_elen : int array;
  c_nfirst : int array;
  c_nlen : int array;
  (* Arenas. *)
  cn : int array;
  ie : int array;
  idist : int array;  (** An internal edge's jump distance in its chain. *)
  igain : float array;  (** [edge_gain] at that distance. *)
  isrc_rank : int array;  (** The rank of its source in its chain. *)
  idst_rank : int array;
  nid : int array;
  nhead : int array;
  ntail : int array;
  (* [best_merge]'s per-trial cross sums and per-cut losses, and its
     result: the gain and the merged score. *)
  xs : float array;
  loss : float array;
  res : float array;
  pq : Support.Pqueue.t;
  idle : float T.t;
      (** Stays empty: the candidate table of the queue's calls, which
          never touch it (the linear rescan makes its own). *)
}

let make_ws ~n ~e =
  let ints k = Array.make k 0 and floats k = Array.make k 0.0 in
  {
    sizes = [||];
    esrc = [||];
    edst = [||];
    ew = [||];
    entry = 0;
    next_cid = 0;
    node_top = 0;
    edge_top = 0;
    nbr_top = 0;
    xlen = 0;
    owner = ints n;
    off = ints n;
    rank = ints n;
    sorted = ints n;
    link0 = ints e;
    link1 = ints e;
    bhead = ints e;
    xe = ints e;
    sgain = floats e;
    c_first = ints (2 * n);
    c_len = ints (2 * n);
    c_size = ints (2 * n);
    c_weight = floats (2 * n);
    c_score = floats (2 * n);
    c_min = ints (2 * n);
    c_efirst = ints (2 * n);
    c_elen = ints (2 * n);
    c_nfirst = ints (2 * n);
    c_nlen = ints (2 * n);
    cn = ints (2 * n);
    ie = ints (2 * e);
    idist = ints (2 * e);
    igain = floats (2 * e);
    isrc_rank = ints (2 * e);
    idst_rank = ints (2 * e);
    nid = ints (4 * e);
    nhead = ints (4 * e);
    ntail = ints (4 * e);
    xs = floats (n + 2);
    loss = floats (n + 2);
    res = floats 2;
    pq = Support.Pqueue.create ();
    idle = T.create 1;
  }

(* The workspace the domain's last [order] returned, holding no
   problem. A call takes it when it fits, else makes one as large as
   the larger of the spare and the problem in each dimension, and puts
   it back when done; a call that raises puts none back. Only a
   workspace of at most [kept_nodes] nodes and [kept_edges] edges is
   kept: larger problems are rare (9 of relink program 1's 534), and a
   workspace their size would sit in the peak memory of every later
   phase, so each of their calls makes its own. *)
let spare_ws : ws option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let kept_nodes = 64

let kept_edges = 128

let take_ws ~n ~e =
  if n > kept_nodes || e > kept_edges then make_ws ~n ~e
  else begin
    let spare = Domain.DLS.get spare_ws in
    Domain.DLS.set spare_ws None;
    match spare with
    | Some w when Array.length w.owner >= n && Array.length w.link0 >= e ->
      Support.Pqueue.clear w.pq;
      w
    | Some w -> make_ws ~n:(Int.max n (Array.length w.owner)) ~e:(Int.max e (Array.length w.link0))
    | None -> make_ws ~n ~e
  end

let return_ws w =
  w.sizes <- [||];
  w.esrc <- [||];
  w.edst <- [||];
  w.ew <- [||];
  if Array.length w.owner <= kept_nodes && Array.length w.link0 <= kept_edges then
    Domain.DLS.set spare_ws (Some w)

(* Link edge [x] to edge [y] through [x]'s free link. *)
let[@inline] link_end w x y = if w.link0.(x) < 0 then w.link0.(x) <- y else w.link1.(x) <- y

(* Copy the edges of the bundle that ends at [tail] into [xe], last
   edge first, and record how many in [xlen]. *)
let gather w tail =
  let k = ref 0 and prev = ref (-1) and cur = ref tail in
  while !cur >= 0 do
    let x = !cur in
    w.xe.(!k) <- x;
    incr k;
    let l0 = w.link0.(x) in
    cur := if l0 = !prev then w.link1.(x) else l0;
    prev := x
  done;
  w.xlen <- !k

(* Evaluate every way to merge chain [a_id] with chain [b_id] across
   the bundle of cross edges between them that ends at [tail]. Each
   arrangement is "b inserted at cut c of a": a[0..c) ++ b ++ a[c..).
   c = |a| is a++b, c = 0 is b++a, and 1..|a|-1 are Newell & Pupyrev's
   X1-Y-X2 splits, tried in that order (|a|, 0, 1, ..) and only while a
   is at most [max_split_chain] long; the first of equal scores wins.
   An arrangement must keep the entry node first when either chain
   holds it.

   A cut is scored in the pinned float order (see the file header):
   - a cross edge's distance is offset arithmetic: an [a] node after
     the cut moves by [b]'s size, a [b] node sits at the cut's offset;
   - an [a] edge keeps its cached gain unless the cut separates its
     ends, which moves its distance by +[b]'s size for a forward edge
     and -[b]'s size for a backward one. Those two gains are the same
     for every cut, so they go to [sgain] once per call;
   - a [b] edge keeps its cached gain.
   The skips of the file header drop work, never a winner.

   Returns the best cut, or -1 if no arrangement is valid or
   profitable; the gain and merged score go to [res.(0)] and [res.(1)].
   Allocates nothing. *)
let best_merge p w a_id b_id ~tail =
  gather w tail;
  let af = w.c_first.(a_id) and na = w.c_len.(a_id) and bsize = w.c_size.(b_id) in
  let cn = w.cn and sizes = w.sizes and owner = w.owner and off = w.off and rank = w.rank in
  let sgain = w.sgain and xs = w.xs and loss = w.loss in
  let entry = w.entry in
  let constrained = owner.(entry) = a_id || owner.(entry) = b_id in
  let trials = if na <= p.max_split_chain && na > 1 then na + 1 else 2 in
  let ae = w.c_efirst.(a_id) and nai = w.c_elen.(a_id) in
  let ie = w.ie and ew = w.ew and idist = w.idist and igain = w.igain in
  let isrc_rank = w.isrc_rank and idst_rank = w.idst_rank in
  (* For split cuts: each a edge's gain when separated ([sgain]), the
     sum of a's gains [g], the magnitude [scale] of every gain a split
     can add, and at [loss.(c)] the gain cut c loses by separating
     edges (edge i is separated by the cuts in (lo, hi] of its ranks). *)
  let g = ref 0.0 and scale = ref 0.0 in
  if trials > 2 && not (constrained && cn.(af) <> entry) then begin
    Array.fill loss 0 (na + 1) 0.0;
    for i = 0 to nai - 1 do
      let k = ae + i in
      let rs = Array.unsafe_get isrc_rank k and rd = Array.unsafe_get idst_rank k in
      let ig = Array.unsafe_get igain k in
      let sg =
        edge_gain p
          (Array.unsafe_get ew (Array.unsafe_get ie k))
          (Array.unsafe_get idist k + if rs < rd then bsize else -bsize)
      in
      Array.unsafe_set sgain i sg;
      g := !g +. ig;
      scale := !scale +. abs_float ig +. abs_float sg;
      let lo = if rs < rd then rs else rd and hi = if rs < rd then rd else rs in
      loss.(lo + 1) <- loss.(lo + 1) +. (ig -. sg);
      loss.(hi + 1) <- loss.(hi + 1) -. (ig -. sg)
    done;
    for c = 1 to na - 1 do
      loss.(c) <- loss.(c) +. loss.(c - 1)
    done
  end;
  let margin = float_of_int (nai + 2) *. 0x1p-45 in
  let xe = w.xe and esrc = w.esrc and edst = w.edst and nc = w.xlen in
  let b_first = cn.(w.c_first.(b_id)) in
  (* Each valid cut's sum over the cross edges, trial t at [xs.(t)]. *)
  for t = 0 to trials - 1 do
    let c = if t = 0 then na else t - 1 in
    let first = if c = 0 then b_first else cn.(af) in
    if not (constrained && first <> entry) then begin
      let cut_off = if c = na then w.c_size.(a_id) else off.(cn.(af + c)) in
      let acc = ref 0.0 in
      for i = 0 to nc - 1 do
        let x = Array.unsafe_get xe i in
        let src = Array.unsafe_get esrc x and dst = Array.unsafe_get edst x in
        let dist =
          if Array.unsafe_get owner src = a_id then
            cut_off + Array.unsafe_get off dst
            - (Array.unsafe_get off src + Array.unsafe_get sizes src
              + if Array.unsafe_get rank src >= c then bsize else 0)
          else
            Array.unsafe_get off dst
            + (if Array.unsafe_get rank dst >= c then bsize else 0)
            - (cut_off + Array.unsafe_get off src + Array.unsafe_get sizes src)
        in
        acc := !acc +. edge_gain p (Array.unsafe_get ew x) dist
      done;
      Array.unsafe_set xs t !acc
    end
  done;
  let be = w.c_efirst.(b_id) and nbi = w.c_elen.(b_id) in
  (* The best cut, its score, and its running sum after the cross edges
     and after a's edges. *)
  let best_cut = ref (-1) and best_s = ref 0.0 in
  let best_cross = ref 0.0 and best_a = ref 0.0 in
  for t = 0 to trials - 1 do
    let c = if t = 0 then na else t - 1 in
    let first = if c = 0 then b_first else cn.(af) in
    if not (constrained && first <> entry) then begin
      let cross_sum = Array.unsafe_get xs t in
      (* A split whose estimate, plus the bound on its rounding errors,
         stays at or below the best running sum after a's edges. *)
      let hopeless =
        t >= 2 && !best_cut >= 0
        &&
        let size = abs_float cross_sum +. !scale in
        size < 0x1p1000
        && cross_sum +. !g -. loss.(c) +. (margin *. size) <= !best_a
      in
      (* b++a after a++b: the same a and b terms follow. *)
      if not (hopeless || (c = 0 && !best_cut = na && cross_sum <= !best_cross)) then begin
        let acc = ref cross_sum in
        if c = 0 || c = na then
          (* No cut at either end separates an edge of [a]. *)
          for i = nai - 1 downto 0 do
            acc := !acc +. Array.unsafe_get igain (ae + i)
          done
        else
          for i = nai - 1 downto 0 do
            let k = ae + i in
            acc :=
              !acc
              +.
              if Array.unsafe_get isrc_rank k < c = (Array.unsafe_get idst_rank k < c) then
                Array.unsafe_get igain k
              else Array.unsafe_get sgain i
          done;
        let a_sum = !acc in
        if !best_cut < 0 || not (a_sum <= !best_a) then begin
          for i = be to be + nbi - 1 do
            acc := !acc +. Array.unsafe_get igain i
          done;
          if !best_cut < 0 || !acc > !best_s then begin
            best_s := !acc;
            best_cut := c;
            best_cross := cross_sum;
            best_a := a_sum
          end
        end
      end
    end
  done;
  if !best_cut < 0 then -1
  else begin
    let gain = !best_s -. w.c_score.(a_id) -. w.c_score.(b_id) in
    if gain > 1e-9 then begin
      w.res.(0) <- gain;
      w.res.(1) <- !best_s;
      !best_cut
    end
    else -1
  end

(* Slide every live chain's parts to the bottom of their arenas, in id
   order, which is their order there. *)
let compact w =
  let nt = ref 0 and et = ref 0 and bt = ref 0 in
  for c = 0 to w.next_cid - 1 do
    let len = w.c_len.(c) in
    if len > 0 then begin
      Array.blit w.cn w.c_first.(c) w.cn !nt len;
      w.c_first.(c) <- !nt;
      nt := !nt + len;
      let ef = w.c_efirst.(c) and el = w.c_elen.(c) in
      Array.blit w.ie ef w.ie !et el;
      Array.blit w.idist ef w.idist !et el;
      Array.blit w.igain ef w.igain !et el;
      Array.blit w.isrc_rank ef w.isrc_rank !et el;
      Array.blit w.idst_rank ef w.idst_rank !et el;
      w.c_efirst.(c) <- !et;
      et := !et + el;
      let nf = w.c_nfirst.(c) and nl = w.c_nlen.(c) in
      Array.blit w.nid nf w.nid !bt nl;
      Array.blit w.nhead nf w.nhead !bt nl;
      Array.blit w.ntail nf w.ntail !bt nl;
      w.c_nfirst.(c) <- !bt;
      bt := !bt + nl
    end
  done;
  w.node_top <- !nt;
  w.edge_top <- !et;
  w.nbr_top <- !bt

(* Append internal edge [x] of a chain whose nodes are placed. *)
let add_internal p w k x =
  let src = w.esrc.(x) and dst = w.edst.(x) in
  let dist = w.off.(dst) - (w.off.(src) + w.sizes.(src)) in
  w.ie.(k) <- x;
  w.idist.(k) <- dist;
  w.igain.(k) <- edge_gain p w.ew.(x) dist;
  w.isrc_rank.(k) <- w.rank.(src);
  w.idst_rank.(k) <- w.rank.(dst)

(* Make chain [m] by inserting [b_id] at cut [cut] of [a_id], with the
   score [best_merge] last found, across the bundle it gathered: its
   nodes and their per-node state, then its internal edges
   reverse(cross) ++ reverse(a's) ++ b's. The caller made room. *)
let merge_chains p w m a_id b_id ~cut =
  let af = w.c_first.(a_id) and na = w.c_len.(a_id) in
  let bf = w.c_first.(b_id) and nb = w.c_len.(b_id) in
  let cn = w.cn and mf = w.node_top in
  Array.blit cn af cn mf cut;
  Array.blit cn bf cn (mf + cut) nb;
  Array.blit cn (af + cut) cn (mf + cut + nb) (na - cut);
  w.node_top <- mf + na + nb;
  let o = ref 0 in
  for r = 0 to na + nb - 1 do
    let v = cn.(mf + r) in
    w.owner.(v) <- m;
    w.off.(v) <- !o;
    w.rank.(v) <- r;
    o := !o + w.sizes.(v)
  done;
  let me = w.edge_top in
  let nc = w.xlen and ae = w.c_efirst.(a_id) and nai = w.c_elen.(a_id) in
  let be = w.c_efirst.(b_id) and nbi = w.c_elen.(b_id) in
  for i = 0 to nc - 1 do
    add_internal p w (me + i) w.xe.(i)
  done;
  for i = 0 to nai - 1 do
    add_internal p w (me + nc + i) w.ie.(ae + nai - 1 - i)
  done;
  for i = 0 to nbi - 1 do
    add_internal p w (me + nc + nai + i) w.ie.(be + i)
  done;
  w.edge_top <- me + nc + nai + nbi;
  w.c_first.(m) <- mf;
  w.c_len.(m) <- na + nb;
  w.c_size.(m) <- w.c_size.(a_id) + w.c_size.(b_id);
  w.c_weight.(m) <- w.c_weight.(a_id) +. w.c_weight.(b_id);
  w.c_score.(m) <- w.res.(1);
  w.c_min.(m) <- Int.min w.c_min.(a_id) w.c_min.(b_id);
  w.c_efirst.(m) <- me;
  w.c_elen.(m) <- nc + nai + nbi

let[@inline] pair_key a b =
  if a < b then Support.Packed.pack_unsafe ~src:a ~dst:b
  else Support.Packed.pack_unsafe ~src:b ~dst:a

(* Score the pair of [a_id] and [b_id], as pushed, and queue it when a
   merge gains. The linear rescan instead keeps the gain in
   [candidates]. *)
let push_pair p w candidates a_id b_id ~tail =
  if best_merge p w a_id b_id ~tail >= 0 then begin
    let gain = w.res.(0) and key = pair_key a_id b_id in
    if not p.use_pqueue then T.replace candidates key gain
      (* The queue never merges an infinite gain (only weights near
         [max_float] make one): the retrieval the layouts are pinned to
         took it for stale, since inf - inf is NaN. *)
    else if gain < Float.infinity then Support.Pqueue.add_from w.pq w.res 0 key
  end

(* Append neighbour [d] with bundle [head .. tail] to [c]'s entries. *)
let add_nbr w c d ~head ~tail =
  let r = w.c_nfirst.(c) + w.c_nlen.(c) in
  w.nid.(r) <- d;
  w.nhead.(r) <- head;
  w.ntail.(r) <- tail;
  w.c_nlen.(c) <- w.c_nlen.(c) + 1

(* The position in [c]'s neighbour entries of its live neighbour [d]. *)
let find_nbr w c d =
  let lo = ref w.c_nfirst.(c) and hi = ref (w.c_nfirst.(c) + w.c_nlen.(c) - 1) in
  while w.nid.((!lo + !hi) / 2) <> d do
    let mid = (!lo + !hi) / 2 in
    if w.nid.(mid) < d then lo := mid + 1 else hi := mid - 1
  done;
  (!lo + !hi) / 2

(* In neighbour [d]'s entries, drop [a_id] and [b_id] and append [m],
   the largest id yet, with bundle [head .. tail]. *)
let reroute w d a_id b_id m ~head ~tail =
  let nf = w.c_nfirst.(d) and len = w.c_nlen.(d) in
  let k = ref nf in
  for r = nf to nf + len - 1 do
    let x = w.nid.(r) in
    if x <> a_id && x <> b_id then begin
      w.nid.(!k) <- x;
      w.nhead.(!k) <- w.nhead.(r);
      w.ntail.(!k) <- w.ntail.(r);
      incr k
    end
  done;
  w.nid.(!k) <- m;
  w.nhead.(!k) <- head;
  w.ntail.(!k) <- tail;
  w.c_nlen.(d) <- !k + 1 - nf

(* Merge the chains of the packed pair [key] if that still gains: make
   the merged chain, give it a's and b's neighbours merged by id, point
   those neighbours at it, and push its new pairs in ascending
   neighbour id. *)
let merge p w candidates merge_count key =
  let a_id = Support.Packed.src key and b_id = Support.Packed.dst key in
  let r = find_nbr w a_id b_id in
  let cut = best_merge p w a_id b_id ~tail:w.ntail.(r) in
  if not p.use_pqueue then T.remove candidates key;
  if cut >= 0 then begin
    incr merge_count;
    let la = w.c_nlen.(a_id) and lb = w.c_nlen.(b_id) in
    if
      w.node_top + w.c_len.(a_id) + w.c_len.(b_id) > Array.length w.cn
      || w.edge_top + w.xlen + w.c_elen.(a_id) + w.c_elen.(b_id) > Array.length w.ie
      || w.nbr_top + la + lb - 2 > Array.length w.nid
    then compact w;
    let m = w.next_cid in
    w.next_cid <- m + 1;
    merge_chains p w m a_id b_id ~cut;
    (* The merged chain's entries: a's and b's merged by id. A
       neighbour of both gets reverse(b's bundle) ++ reverse(a's). *)
    let ia = w.c_nfirst.(a_id) and ib = w.c_nfirst.(b_id) in
    let mn = w.nbr_top in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < la || !j < lb do
      let x = if !i < la then w.nid.(ia + !i) else max_int in
      let y = if !j < lb then w.nid.(ib + !j) else max_int in
      if x = b_id then incr i
      else if y = a_id then incr j
      else begin
        let d = if x <= y then x else y and s = mn + !k in
        w.nid.(s) <- d;
        if x < y then begin
          w.nhead.(s) <- w.ntail.(ia + !i);
          w.ntail.(s) <- w.nhead.(ia + !i)
        end
        else if y < x then begin
          w.nhead.(s) <- w.ntail.(ib + !j);
          w.ntail.(s) <- w.nhead.(ib + !j)
        end
        else begin
          let hb = w.nhead.(ib + !j) and ta = w.ntail.(ia + !i) in
          link_end w hb ta;
          link_end w ta hb;
          w.nhead.(s) <- w.ntail.(ib + !j);
          w.ntail.(s) <- w.nhead.(ia + !i)
        end;
        if x = d then incr i;
        if y = d then incr j;
        if not p.use_pqueue then begin
          T.remove candidates (pair_key a_id d);
          T.remove candidates (pair_key b_id d)
        end;
        reroute w d a_id b_id m ~head:w.nhead.(s) ~tail:w.ntail.(s);
        incr k
      end
    done;
    w.c_nfirst.(m) <- mn;
    w.c_nlen.(m) <- !k;
    w.nbr_top <- mn + !k;
    w.c_len.(a_id) <- 0;
    w.c_len.(b_id) <- 0;
    for r = mn to mn + !k - 1 do
      push_pair p w candidates m w.nid.(r) ~tail:w.ntail.(r)
    done
  end

(* The best candidate's packed pair, or -1 when none is left. *)
let rec next_candidate p w candidates =
  if p.use_pqueue then
    if Support.Pqueue.length w.pq = 0 then -1
    else begin
      let key = Support.Pqueue.pop_max w.pq in
      if w.c_len.(Support.Packed.src key) > 0 && w.c_len.(Support.Packed.dst key) > 0 then key
      else next_candidate p w candidates
    end
  else begin
    (* Linear rescan: the pre-Propeller O(n) retrieval, keeping the
       first of equal gains in table order. *)
    let best = ref (-1) and best_g = ref 0.0 in
    T.iter
      (fun key g ->
        if w.c_len.(Support.Packed.src key) > 0 && w.c_len.(Support.Packed.dst key) > 0
           && not (!best >= 0 && !best_g >= g)
        then begin
          best := key;
          best_g := g
        end)
      candidates;
    !best
  end

(* Final order: the entry chain first, then remaining chains by
   decreasing hotness density, ties by smallest node id (a strict total
   order, so the result does not depend on chain ids or on the sort). *)
let[@inline] density w c =
  if w.c_size.(c) = 0 then 0.0 else w.c_weight.(c) /. float_of_int w.c_size.(c)

let compare_chains w c1 c2 =
  let e = w.owner.(w.entry) in
  if c2 = e then 1
  else if c1 = e then -1
  else begin
    let d = Float.compare (density w c2) (density w c1) in
    if d <> 0 then d else Int.compare w.c_min.(c1) w.c_min.(c2)
  end

(* Heap sort of [w.sorted.(0 .. len-1)] by [compare_chains]. *)
let rec sift_down w i len =
  let s = w.sorted in
  let l = (2 * i) + 1 in
  if l < len then begin
    let c = if l + 1 < len && compare_chains w s.(l + 1) s.(l) > 0 then l + 1 else l in
    if compare_chains w s.(c) s.(i) > 0 then begin
      let x = s.(i) in
      s.(i) <- s.(c);
      s.(c) <- x;
      sift_down w c len
    end
  end

let sort_chains w len =
  for i = (len / 2) - 1 downto 0 do
    sift_down w i len
  done;
  for last = len - 1 downto 1 do
    let x = w.sorted.(0) in
    w.sorted.(0) <- w.sorted.(last);
    w.sorted.(last) <- x;
    sift_down w 0 last
  done

let order ?(params = default_params) (problem : Problem.t) =
  let merge_count = merge_count () in
  merge_count := 0;
  let sizes = problem.sizes and weights = problem.weights in
  let n = Array.length sizes in
  if n = 0 then []
  else begin
    let ne = Array.length problem.esrc in
    let w = take_ws ~n ~e:ne in
    w.sizes <- sizes;
    w.esrc <- problem.esrc;
    w.edst <- problem.edst;
    w.ew <- problem.ew;
    w.entry <- problem.entry;
    for i = 0 to n - 1 do
      w.owner.(i) <- i;
      w.off.(i) <- 0;
      w.rank.(i) <- 0;
      w.cn.(i) <- i;
      w.c_first.(i) <- i;
      w.c_len.(i) <- 1;
      w.c_size.(i) <- sizes.(i);
      w.c_weight.(i) <- weights.(i);
      w.c_score.(i) <- 0.0;
      w.c_min.(i) <- i;
      w.c_efirst.(i) <- 0;
      w.c_elen.(i) <- 0;
      w.c_nlen.(i) <- 0
    done;
    w.next_cid <- n;
    w.node_top <- n;
    w.edge_top <- 0;
    (* Cross bundles of node pairs: an edge joins its pair's bundle at
       the front, so a pair's bundle lists its edges in the reverse of
       the problem's order. The table maps a pair to its bundle's tail,
       its first edge, whose [bhead] is the bundle's head; only its
       iteration order is read after. *)
    let cross : int T.t = T.create (2 * n) in
    for x = 0 to ne - 1 do
      w.link0.(x) <- -1;
      w.link1.(x) <- -1;
      let src = problem.esrc.(x) and dst = problem.edst.(x) in
      let key = pair_key src dst in
      match T.find_opt cross key with
      | Some t ->
        link_end w x w.bhead.(t);
        link_end w w.bhead.(t) x;
        w.bhead.(t) <- x
      | None ->
        T.replace cross key x;
        w.bhead.(x) <- x;
        w.c_nlen.(src) <- w.c_nlen.(src) + 1;
        w.c_nlen.(dst) <- w.c_nlen.(dst) + 1
    done;
    let top = ref 0 in
    for i = 0 to n - 1 do
      w.c_nfirst.(i) <- !top;
      top := !top + w.c_nlen.(i);
      w.c_nlen.(i) <- 0
    done;
    w.nbr_top <- !top;
    (* Candidate merges. The queue holds packed (min, max) chain pairs.
       A pair is pushed at most once (a merged chain's id is fresh), so
       a popped pair is current exactly when both chains are alive. The
       linear rescan instead keeps the gain of each current pair in
       [candidates], whose table order breaks its ties.

       A candidate is ranked by [best_merge] in the orientation it was
       pushed with, (merged, neighbour) after a merge, but [merge]
       re-evaluates it as (min, max) = (neighbour, merged). The two
       evaluations can differ (the split search only cuts the first
       chain, and float sums follow the edge order), so the evaluation
       that ranked a candidate is not reused for the merge itself: doing
       so changed 466 of the 1143 layouts of relink-family programs 0
       and 1. *)
    let candidates = if params.use_pqueue then w.idle else T.create (2 * n) in
    (* Seed in the cross table's iteration order: equal gains pop in
       push order, so that order is part of the output. *)
    T.iter
      (fun key tail ->
        let a = Support.Packed.src key and b = Support.Packed.dst key in
        let head = w.bhead.(tail) in
        add_nbr w a b ~head ~tail;
        add_nbr w b a ~head ~tail;
        push_pair params w candidates a b ~tail)
      cross;
    (* Neighbour entries go to ascending id, which merges then keep. *)
    for c = 0 to n - 1 do
      let nf = w.c_nfirst.(c) in
      for i = nf + 1 to nf + w.c_nlen.(c) - 1 do
        let d = w.nid.(i) and head = w.nhead.(i) and tail = w.ntail.(i) in
        let j = ref (i - 1) in
        while !j >= nf && w.nid.(!j) > d do
          w.nid.(!j + 1) <- w.nid.(!j);
          w.nhead.(!j + 1) <- w.nhead.(!j);
          w.ntail.(!j + 1) <- w.ntail.(!j);
          decr j
        done;
        w.nid.(!j + 1) <- d;
        w.nhead.(!j + 1) <- head;
        w.ntail.(!j + 1) <- tail
      done
    done;
    let key = ref (next_candidate params w candidates) in
    while !key >= 0 do
      merge params w candidates merge_count !key;
      key := next_candidate params w candidates
    done;
    let live = ref 0 in
    for c = 0 to w.next_cid - 1 do
      if w.c_len.(c) > 0 then begin
        w.sorted.(!live) <- c;
        incr live
      end
    done;
    sort_chains w !live;
    let out = ref [] in
    for s = !live - 1 downto 0 do
      let c = w.sorted.(s) in
      for r = w.c_first.(c) + w.c_len.(c) - 1 downto w.c_first.(c) do
        out := w.cn.(r) :: !out
      done
    done;
    return_ws w;
    !out
  end
