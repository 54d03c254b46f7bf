(* Ext-TSP block reordering: greedy chain merging, the best merge
   retrieved from a priority queue (or a linear rescan, for the
   ablation).

   State that no candidate merge changes is kept, not recomputed:
   - per node ([nodes]): its chain, byte offset and rank there, written
     once per merge for the merged chain's nodes;
   - per chain ([chain]): its internal edges' distances and gains, and
     the ranks of each edge's ends, computed once when the chain is made;
   - per live chain: its neighbours, in ascending chain id, each with
     the bundle of cross edges between the two. A merge builds the
     merged chain's entries from a's and b's, and in each neighbour
     replaces a and b by the merged chain. Dead chains appear nowhere.
   [best_merge] scores every "b inserted at cut c of a" from that state
   alone. The float contract: a cut's score sums edge gains in the order
   reverse(cross), reverse(a.internal), b.internal, which is the merged
   chain's internal order and the order the pinned layouts depend on.

   Ties between equal gains are broken by push order, so the order of
   pushes is part of the output. The first pushes follow the iteration
   order of a table of cross bundles keyed by (min, max) node pairs,
   which [Packed.Tbl] keeps equal to a tuple-keyed [Hashtbl]'s; that
   table is built once, for seeding, and the neighbour entries take
   over after. A merge pushes its new pairs in ascending neighbour id.

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

(* Edge bundles: flat (src, dst, w) parallel arrays in a fixed order —
   the problem's cached {!Problem.flat} form, and the same shape for the
   merge machinery's intermediate sets. Scoring folds a bundle left to
   right, so element order is the float accumulation order — every
   construction below mirrors the historical list order exactly (a
   bundle is the list it replaces, element for element), keeping scores
   bit-identical. *)
type ebundle = Problem.flat = { esrc : int array; edst : int array; ew : float array }

let ebundle_empty = { esrc = [||]; edst = [||]; ew = [||] }

let ebundle_len e = Array.length e.esrc

(* [rev_concat x y] is reverse(x) ++ y — the bundle form of
   [List.rev_append x y]. *)
let rev_concat x y =
  let nx = ebundle_len x and ny = ebundle_len y in
  let esrc = Array.make (nx + ny) 0
  and edst = Array.make (nx + ny) 0
  and ew = Array.make (nx + ny) 0.0 in
  for i = 0 to nx - 1 do
    let j = nx - 1 - i in
    esrc.(i) <- x.esrc.(j);
    edst.(i) <- x.edst.(j);
    ew.(i) <- x.ew.(j)
  done;
  Array.blit y.esrc 0 esrc nx ny;
  Array.blit y.edst 0 edst nx ny;
  Array.blit y.ew 0 ew nx ny;
  { esrc; edst; ew }

(* reverse(x); a one-edge bundle is its own reverse and is shared. *)
let reverse x = if ebundle_len x = 1 then x else rev_concat x ebundle_empty

type chain = {
  nodes : int array;
  size : int;  (** total code bytes *)
  weight : float;  (** total execution count *)
  score : float;  (** Ext-TSP score of internal edges under this order *)
  internal : ebundle;  (** edges with both ends inside *)
  idist : int array;  (** [internal]'s jump distances under this order *)
  igain : float array;  (** [edge_gain] of each internal edge at [idist] *)
  isrc_rank : int array;  (** rank of each internal edge's source here *)
  idst_rank : int array;  (** rank of each internal edge's destination *)
  has_entry : bool;  (** holds the problem's entry node *)
}

(* Per-node state of a running [order]: each node's owning chain id, its
   byte offset inside that chain and its rank (index) there. Written
   once per merge, for the merged chain's nodes only. *)
type nodes = { sizes : int array; owner : int array; off : int array; rank : int array }

(* Per-[order] scratch of [best_merge]: each edge of [a]'s gain when a
   cut separates its ends, each trial's cross sum, and each split cut's
   loss on the edges it separates. *)
type merge_scratch = { sgain : float array; xs : float array; loss : float array }

(* Scratch state for [score_into]: position maps stamped per call, so
   search loops that score many arrangements allocate nothing. *)
type scratch = { pos : int array; end_pos : int array; stamp : int array; mutable cur : int }

let scratch n =
  { pos = Array.make n 0; end_pos = Array.make n 0; stamp = Array.make n (-1); cur = 0 }

(* Score the arrangement [arr] against the edge bundle [e], folded left
   to right; edges with an endpoint outside [arr] contribute 0. *)
let score_bundle p scratch sizes arr e =
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
  let acc = ref 0.0 in
  for i = 0 to ebundle_len e - 1 do
    let src = Array.unsafe_get e.esrc i and dst = Array.unsafe_get e.edst i in
    if Array.unsafe_get stamp src = cur && Array.unsafe_get stamp dst = cur then
      acc :=
        !acc
        +. edge_gain p (Array.unsafe_get e.ew i)
             (Array.unsafe_get pos dst - Array.unsafe_get end_pos src)
  done;
  !acc

let score_into ?(params = default_params) scratch (p : Problem.t) arr =
  score_bundle params scratch p.sizes arr (Problem.flat p)

let score ?(params = default_params) ~order (p : Problem.t) =
  score_bundle params (scratch (Array.length p.sizes)) p.sizes (Array.of_list order)
    (Problem.flat p)

let score_norm ?(params = default_params) ~order (p : Problem.t) =
  let total = Problem.total_weight p in
  if total <= 0.0 then 0.0 else score ~params ~order p /. total

(* Evaluate every way to merge chain [a] (id [a_id]) with chain [b]
   across the edges [cross] between them. Each arrangement is "b
   inserted at cut c of a": a[0..c) ++ b ++ a[c..). c = |a| is a++b,
   c = 0 is b++a, and 1..|a|-1 are Newell & Pupyrev's X1-Y-X2 splits,
   tried in that order (|a|, 0, 1, ..) and only while a is at most
   [max_split_chain] long; the first of equal scores wins. An
   arrangement must keep [entry] first when either chain holds it.

   A cut is scored in the pinned float order (see the file header):
   - a cross edge's distance is offset arithmetic: an [a] node after
     the cut moves by [b.size], a [b] node sits at the cut's offset;
   - an [a] edge keeps its cached gain unless the cut separates its
     ends, which moves its distance by +[b.size] for a forward edge and
     -[b.size] for a backward one. Those two gains are the same for
     every cut, so they go to [sgain] once per call;
   - a [b] edge keeps its cached gain.
   The skips of the file header drop work, never a winner.

   Returns the best cut, or -1 if no arrangement is valid or
   profitable; the gain and merged score go to [res.(0)] and [res.(1)].
   Allocates nothing. *)
let best_merge p st sc entry a_id a b cross res =
  let na = Array.length a.nodes and bsize = b.size in
  let sizes = st.sizes and owner = st.owner and off = st.off and rank = st.rank in
  let sgain = sc.sgain and xs = sc.xs and loss = sc.loss in
  let constrained = a.has_entry || b.has_entry in
  let trials = if na <= p.max_split_chain && na > 1 then na + 1 else 2 in
  let ai = a.internal and igain = a.igain in
  let isrc_rank = a.isrc_rank and idst_rank = a.idst_rank in
  let nai = ebundle_len ai in
  (* For split cuts: each a edge's gain when separated ([sgain]), the
     sum of a's gains [g], the magnitude [scale] of every gain a split
     can add, and at [loss.(c)] the gain cut c loses by separating
     edges (edge i is separated by the cuts in (lo, hi] of its ranks). *)
  let g = ref 0.0 and scale = ref 0.0 in
  if trials > 2 && not (constrained && a.nodes.(0) <> entry) then begin
    Array.fill loss 0 (na + 1) 0.0;
    for i = 0 to nai - 1 do
      let rs = Array.unsafe_get isrc_rank i and rd = Array.unsafe_get idst_rank i in
      let ig = Array.unsafe_get igain i in
      let sg =
        edge_gain p (Array.unsafe_get ai.ew i)
          (Array.unsafe_get a.idist i + if rs < rd then bsize else -bsize)
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
  (* Each valid cut's sum over the cross edges, trial t at [xs.(t)]. *)
  for t = 0 to trials - 1 do
    let c = if t = 0 then na else t - 1 in
    let first = if c = 0 then b.nodes.(0) else a.nodes.(0) in
    if not (constrained && first <> entry) then begin
      let cut_off = if c = na then a.size else off.(a.nodes.(c)) in
      let acc = ref 0.0 in
      for i = ebundle_len cross - 1 downto 0 do
        let src = Array.unsafe_get cross.esrc i and dst = Array.unsafe_get cross.edst i in
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
        acc := !acc +. edge_gain p (Array.unsafe_get cross.ew i) dist
      done;
      Array.unsafe_set xs t !acc
    end
  done;
  let bgain = b.igain in
  (* The best cut, its score, and its running sum after the cross edges
     and after a's edges. *)
  let best_cut = ref (-1) and best_s = ref 0.0 in
  let best_cross = ref 0.0 and best_a = ref 0.0 in
  for t = 0 to trials - 1 do
    let c = if t = 0 then na else t - 1 in
    let first = if c = 0 then b.nodes.(0) else a.nodes.(0) in
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
            acc := !acc +. Array.unsafe_get igain i
          done
        else
          for i = nai - 1 downto 0 do
            acc :=
              !acc
              +.
              if Array.unsafe_get isrc_rank i < c = (Array.unsafe_get idst_rank i < c) then
                Array.unsafe_get igain i
              else Array.unsafe_get sgain i
          done;
        let a_sum = !acc in
        if !best_cut < 0 || not (a_sum <= !best_a) then begin
          for i = 0 to Array.length bgain - 1 do
            acc := !acc +. Array.unsafe_get bgain i
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
    let gain = !best_s -. a.score -. b.score in
    if gain > 1e-9 then begin
      res.(0) <- gain;
      res.(1) <- !best_s;
      !best_cut
    end
    else -1
  end

(* The chain that inserting [b] at cut [cut] of [a] makes, with score
   [score]. Writes its nodes' per-node state, then builds its internal
   edges reverse(cross) ++ reverse(a.internal) ++ b.internal with their
   distances, gains and end ranks in one pass. *)
let merge_chains p st merged_id a b cross ~cut ~score =
  let na = Array.length a.nodes and nb = Array.length b.nodes in
  let nodes = Array.make (na + nb) 0 in
  Array.blit a.nodes 0 nodes 0 cut;
  Array.blit b.nodes 0 nodes cut nb;
  Array.blit a.nodes cut nodes (cut + nb) (na - cut);
  let o = ref 0 in
  for r = 0 to na + nb - 1 do
    let v = nodes.(r) in
    st.owner.(v) <- merged_id;
    st.off.(v) <- !o;
    st.rank.(v) <- r;
    o := !o + st.sizes.(v)
  done;
  let ai = a.internal and bi = b.internal in
  let nc = ebundle_len cross and nai = ebundle_len ai in
  let nca = nc + nai in
  let len = nca + ebundle_len bi in
  let esrc = Array.make len 0 and edst = Array.make len 0 and ew = Array.make len 0.0 in
  let idist = Array.make len 0 and igain = Array.make len 0.0 in
  let isrc_rank = Array.make len 0 and idst_rank = Array.make len 0 in
  for k = 0 to len - 1 do
    let e = if k < nc then cross else if k < nca then ai else bi in
    let i = if k < nc then nc - 1 - k else if k < nca then nca - 1 - k else k - nca in
    let src = e.esrc.(i) and dst = e.edst.(i) and w = e.ew.(i) in
    let dist = st.off.(dst) - (st.off.(src) + st.sizes.(src)) in
    esrc.(k) <- src;
    edst.(k) <- dst;
    ew.(k) <- w;
    idist.(k) <- dist;
    igain.(k) <- edge_gain p w dist;
    isrc_rank.(k) <- st.rank.(src);
    idst_rank.(k) <- st.rank.(dst)
  done;
  {
    nodes;
    size = a.size + b.size;
    weight = a.weight +. b.weight;
    score;
    internal = { esrc; edst; ew };
    idist;
    igain;
    isrc_rank;
    idst_rank;
    has_entry = a.has_entry || b.has_entry;
  }

let order ?(params = default_params) (problem : Problem.t) =
  let merge_count = merge_count () in
  merge_count := 0;
  let sizes = problem.sizes and weights = problem.weights and entry = problem.entry in
  let n = Array.length sizes in
  if n = 0 then []
  else begin
    let edges = Problem.flat problem in
    let st =
      { sizes; owner = Array.init n Fun.id; off = Array.make n 0; rank = Array.make n 0 }
    in
    let res = Array.make 2 0.0 in
    let sc =
      {
        sgain = Array.make (if params.max_split_chain > 1 then ebundle_len edges else 0) 0.0;
        xs = Array.make (max 2 (params.max_split_chain + 1)) 0.0;
        loss = Array.make (max 2 (params.max_split_chain + 1)) 0.0;
      }
    in
    (* Chain state, indexed by chain id. Ids 0..n-1 are the singleton
       chains; every merge takes the next fresh id (at most n - 1 merges,
       so ids stay below 2n). *)
    let dead =
      { nodes = [||]; size = 0; weight = 0.0; score = 0.0; internal = ebundle_empty;
        idist = [||]; igain = [||]; isrc_rank = [||]; idst_rank = [||]; has_entry = false }
    in
    let chains = Array.make (2 * n) dead in
    let live cid = chains.(cid) != dead in
    let next_cid = ref n in
    for i = 0 to n - 1 do
      chains.(i) <-
        { nodes = [| i |]; size = sizes.(i); weight = weights.(i); score = 0.0;
          internal = ebundle_empty; idist = [||]; igain = [||]; isrc_rank = [||];
          idst_rank = [||]; has_entry = i = entry }
    done;
    (* Each live chain's neighbours in ascending id ([nbr]), the cross
       bundle shared with each ([nbr_es]), and how many there are. *)
    let nbr = Array.make (2 * n) [||] and nbr_es = Array.make (2 * n) [||] in
    let nbr_len = Array.make (2 * n) 0 in
    let add_nbr c d es =
      nbr.(c).(nbr_len.(c)) <- d;
      nbr_es.(c).(nbr_len.(c)) <- es;
      nbr_len.(c) <- nbr_len.(c) + 1
    in
    (* Cross bundles of node pairs: an edge joins its pair's bundle at
       the front, so a pair's bundle lists its edges in reverse flat
       order. *)
    let module T = Support.Packed.Tbl in
    let pair_key a b =
      if a < b then Support.Packed.pack_unsafe ~src:a ~dst:b
      else Support.Packed.pack_unsafe ~src:b ~dst:a
    in
    let cross : ebundle T.t = T.create (2 * n) in
    for i = 0 to ebundle_len edges - 1 do
      let src = edges.esrc.(i) and dst = edges.edst.(i) in
      let e = { esrc = [| src |]; edst = [| dst |]; ew = [| edges.ew.(i) |] } in
      let key = pair_key src dst in
      match T.find_opt cross key with
      | Some prev -> T.replace cross key (rev_concat e prev)
      | None ->
        T.replace cross key e;
        nbr_len.(src) <- nbr_len.(src) + 1;
        nbr_len.(dst) <- nbr_len.(dst) + 1
    done;
    for i = 0 to n - 1 do
      nbr.(i) <- Array.make nbr_len.(i) 0;
      nbr_es.(i) <- Array.make nbr_len.(i) ebundle_empty;
      nbr_len.(i) <- 0
    done;
    (* Candidate merges. The queue holds packed (min, max) chain pairs.
       A pair is pushed at most once (a merged chain's id is fresh), so
       a popped pair is current exactly when both chains are alive. The
       linear rescan instead keeps the gain of each current pair in
       [candidates], whose table order breaks its ties. *)
    let pq = Support.Pqueue.create () in
    let candidates : float T.t = T.create (if params.use_pqueue then 1 else 2 * n) in
    (* A candidate is ranked by [best_merge] in the orientation it was
       pushed with, (merged, neighbour) after a merge, but [merge]
       re-evaluates it as (min, max) = (neighbour, merged). The two
       evaluations can differ (the split search only cuts the first
       chain, and float sums follow the edge order), so the evaluation
       that ranked a candidate is not reused for the merge itself: doing
       so changed 466 of the 1143 layouts of relink-family programs 0
       and 1. *)
    let push_pair a_id b_id es =
      if best_merge params st sc entry a_id chains.(a_id) chains.(b_id) es res >= 0 then begin
        let gain = res.(0) and key = pair_key a_id b_id in
        if not params.use_pqueue then T.replace candidates key gain
          (* The queue never merges an infinite gain (only weights near
             [max_float] make one): the retrieval the layouts are pinned
             to took it for stale, since inf - inf is NaN. *)
        else if gain < Float.infinity then Support.Pqueue.add pq ~priority:gain key
      end
    in
    (* Seed in the cross table's iteration order: equal gains pop in
       push order, so that order is part of the output. *)
    T.iter
      (fun key es ->
        let a = Support.Packed.src key and b = Support.Packed.dst key in
        add_nbr a b es;
        add_nbr b a es;
        push_pair a b es)
      cross;
    (* Neighbour entries go to ascending id, which merges then keep. *)
    for c = 0 to n - 1 do
      let ids = nbr.(c) and ess = nbr_es.(c) in
      for i = 1 to nbr_len.(c) - 1 do
        let d = ids.(i) and es = ess.(i) in
        let j = ref (i - 1) in
        while !j >= 0 && ids.(!j) > d do
          ids.(!j + 1) <- ids.(!j);
          ess.(!j + 1) <- ess.(!j);
          decr j
        done;
        ids.(!j + 1) <- d;
        ess.(!j + 1) <- es
      done
    done;
    (* The best candidate's packed pair, or -1 when none is left. *)
    let rec next_candidate () =
      if params.use_pqueue then
        if Support.Pqueue.length pq = 0 then -1
        else begin
          let key = Support.Pqueue.pop_max pq in
          if live (Support.Packed.src key) && live (Support.Packed.dst key) then key
          else next_candidate ()
        end
      else begin
        (* Linear rescan: the pre-Propeller O(n) retrieval, keeping the
           first of equal gains in table order. *)
        let best = ref (-1) and best_g = ref 0.0 in
        T.iter
          (fun key g ->
            if live (Support.Packed.src key) && live (Support.Packed.dst key)
               && not (!best >= 0 && !best_g >= g)
            then begin
              best := key;
              best_g := g
            end)
          candidates;
        !best
      end
    in
    (* The cross bundle of live neighbours [c] and [d]. *)
    let bundle c d =
      let ids = nbr.(c) in
      let rec find lo hi =
        let mid = (lo + hi) / 2 in
        if ids.(mid) = d then mid else if ids.(mid) < d then find (mid + 1) hi else find lo (mid - 1)
      in
      nbr_es.(c).(find 0 (nbr_len.(c) - 1))
    in
    (* In neighbour [d]'s entries, drop [a_id] and [b_id] and append
       [m], the largest id yet, with bundle [es]. *)
    let reroute d a_id b_id m es =
      let ids = nbr.(d) and ess = nbr_es.(d) and len = nbr_len.(d) in
      let w = ref 0 in
      for r = 0 to len - 1 do
        let x = ids.(r) in
        if x <> a_id && x <> b_id then begin
          ids.(!w) <- x;
          ess.(!w) <- ess.(r);
          incr w
        end
      done;
      ids.(!w) <- m;
      ess.(!w) <- es;
      if !w + 1 < len then ess.(!w + 1) <- ebundle_empty;
      nbr_len.(d) <- !w + 1
    in
    let merge key =
      let a_id = Support.Packed.src key and b_id = Support.Packed.dst key in
      let es_ab = bundle a_id b_id in
      let a = chains.(a_id) and b = chains.(b_id) in
      let cut = best_merge params st sc entry a_id a b es_ab res in
      if not params.use_pqueue then T.remove candidates key;
      if cut >= 0 then begin
        incr merge_count;
        let m = !next_cid in
        incr next_cid;
        chains.(m) <- merge_chains params st m a b es_ab ~cut ~score:res.(1);
        chains.(a_id) <- dead;
        chains.(b_id) <- dead;
        (* The merged chain's entries: a's and b's merged by id. A
           neighbour of both gets reverse(b's bundle) ++ reverse(a's). *)
        let ia = nbr.(a_id) and ea = nbr_es.(a_id) and la = nbr_len.(a_id) in
        let ib = nbr.(b_id) and eb = nbr_es.(b_id) and lb = nbr_len.(b_id) in
        let ids = Array.make (la + lb - 2) 0 and ess = Array.make (la + lb - 2) ebundle_empty in
        let i = ref 0 and j = ref 0 and k = ref 0 in
        while !i < la || !j < lb do
          let x = if !i < la then ia.(!i) else max_int and y = if !j < lb then ib.(!j) else max_int in
          if x = b_id then incr i
          else if y = a_id then incr j
          else begin
            let d = if x <= y then x else y in
            let es =
              if x < y then reverse ea.(!i)
              else if y < x then reverse eb.(!j)
              else rev_concat eb.(!j) (reverse ea.(!i))
            in
            if x = d then incr i;
            if y = d then incr j;
            if not params.use_pqueue then begin
              T.remove candidates (pair_key a_id d);
              T.remove candidates (pair_key b_id d)
            end;
            reroute d a_id b_id m es;
            ids.(!k) <- d;
            ess.(!k) <- es;
            incr k
          end
        done;
        nbr.(m) <- ids;
        nbr_es.(m) <- ess;
        nbr_len.(m) <- !k;
        nbr.(a_id) <- [||];
        nbr_es.(a_id) <- [||];
        nbr.(b_id) <- [||];
        nbr_es.(b_id) <- [||];
        for r = 0 to !k - 1 do
          push_pair m ids.(r) ess.(r)
        done
      end
    in
    let rec loop () =
      let key = next_candidate () in
      if key >= 0 then begin
        merge key;
        loop ()
      end
    in
    loop ();
    (* Final order: the entry chain first, then remaining chains by
       decreasing hotness density, ties by smallest node id (a strict
       total order, so the result does not depend on chain ids). *)
    let all = List.filter (fun c -> c != dead) (Array.to_list chains) in
    let density c = if c.size = 0 then 0.0 else c.weight /. float_of_int c.size in
    let min_node c = Array.fold_left min max_int c.nodes in
    let sorted =
      List.sort
        (fun c1 c2 ->
          match c2.has_entry, c1.has_entry with
          | true, false -> 1
          | false, true -> -1
          | true, true | false, false ->
            let d = compare (density c2) (density c1) in
            if d <> 0 then d else compare (min_node c1) (min_node c2))
        all
    in
    List.concat_map (fun c -> Array.to_list c.nodes) sorted
  end
