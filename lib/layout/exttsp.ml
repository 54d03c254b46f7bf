(* Ext-TSP block reordering: greedy chain merging, the best merge
   retrieved from a priority queue (or a linear rescan, for the
   ablation).

   State that no candidate merge changes is kept, not recomputed:
   - per node ([nodes]): its chain, byte offset and rank there, written
     once per merge for the merged chain's nodes;
   - per chain ([chain]): its internal edges' distances and gains,
     computed once when the chain is made.
   [best_merge] scores every "b inserted at cut c of a" from that state
   alone. The float contract: a cut's score sums edge gains in the order
   reverse(cross), reverse(a.internal), b.internal, which is the merged
   chain's internal order and the order the pinned layouts depend on. *)

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

let ebundle_singleton src dst w = { esrc = [| src |]; edst = [| dst |]; ew = [| w |] }

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

type chain = {
  nodes : int array;
  size : int;  (** total code bytes *)
  weight : float;  (** total execution count *)
  score : float;  (** Ext-TSP score of internal edges under this order *)
  internal : ebundle;  (** edges with both ends inside *)
  idist : int array;  (** [internal]'s jump distances under this order *)
  igain : float array;  (** [edge_gain] of each internal edge at [idist] *)
  has_entry : bool;  (** holds the problem's entry node *)
}

(* Per-node state of a running [order]: each node's owning chain id, its
   byte offset inside that chain and its rank (index) there. Written
   once per merge, for the merged chain's nodes only. *)
type nodes = { sizes : int array; owner : int array; off : int array; rank : int array }

(* Scratch state for [score_into]: position maps stamped per call, so
   search loops that score many arrangements allocate nothing. *)
type scratch = { pos : int array; end_pos : int array; stamp : int array; mutable cur : int }

let scratch n =
  { pos = Array.make n 0; end_pos = Array.make n 0; stamp = Array.make n (-1); cur = 0 }

(* Score the arrangement [arr] against the edge bundle [e], folded left
   to right; edges with an endpoint outside [arr] contribute 0. *)
let score_bundle p scratch sizes arr e =
  scratch.cur <- scratch.cur + 1;
  let cur = scratch.cur in
  let pos = scratch.pos and end_pos = scratch.end_pos and stamp = scratch.stamp in
  let off = ref 0 in
  for i = 0 to Array.length arr - 1 do
    let n = Array.unsafe_get arr i in
    Array.unsafe_set pos n !off;
    off := !off + Array.unsafe_get sizes n;
    Array.unsafe_set end_pos n !off;
    Array.unsafe_set stamp n cur
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
     ends, which moves its distance by +-[b.size];
   - a [b] edge keeps its cached gain.

   Returns the best cut, or -1 if no arrangement is valid or
   profitable; the gain and merged score go to [res.(0)] and [res.(1)].
   Allocates nothing. *)
let best_merge p st entry a_id a b cross res =
  let na = Array.length a.nodes and bsize = b.size in
  let sizes = st.sizes and owner = st.owner and off = st.off and rank = st.rank in
  let constrained = a.has_entry || b.has_entry in
  let trials = if na <= p.max_split_chain && na > 1 then na + 1 else 2 in
  let best_cut = ref (-1) and best_s = ref 0.0 in
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
      let ai = a.internal in
      if c = 0 || c = na then
        (* No cut at either end separates an edge of [a]. *)
        for i = ebundle_len ai - 1 downto 0 do
          acc := !acc +. Array.unsafe_get a.igain i
        done
      else
        for i = ebundle_len ai - 1 downto 0 do
          let src_before = Array.unsafe_get rank (Array.unsafe_get ai.esrc i) < c
          and dst_before = Array.unsafe_get rank (Array.unsafe_get ai.edst i) < c in
          acc :=
            !acc
            +.
            if src_before = dst_before then Array.unsafe_get a.igain i
            else
              edge_gain p (Array.unsafe_get ai.ew i)
                (Array.unsafe_get a.idist i + if src_before then bsize else -bsize)
        done;
      let bgain = b.igain in
      for i = 0 to Array.length bgain - 1 do
        acc := !acc +. Array.unsafe_get bgain i
      done;
      if !best_cut < 0 || !acc > !best_s then begin
        best_s := !acc;
        best_cut := c
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
   distances and gains in one pass. *)
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
  for k = 0 to len - 1 do
    let e = if k < nc then cross else if k < nca then ai else bi in
    let i = if k < nc then nc - 1 - k else if k < nca then nca - 1 - k else k - nca in
    let src = e.esrc.(i) and dst = e.edst.(i) and w = e.ew.(i) in
    let dist = st.off.(dst) - (st.off.(src) + st.sizes.(src)) in
    esrc.(k) <- src;
    edst.(k) <- dst;
    ew.(k) <- w;
    idist.(k) <- dist;
    igain.(k) <- edge_gain p w dist
  done;
  {
    nodes;
    size = a.size + b.size;
    weight = a.weight +. b.weight;
    score;
    internal = { esrc; edst; ew };
    idist;
    igain;
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
    (* Chain state, indexed by chain id. Ids 0..n-1 are the singleton
       chains; every merge takes the next fresh id (at most n - 1 merges,
       so ids stay below 2n), which is how stale candidates are caught. *)
    let dead =
      { nodes = [||]; size = 0; weight = 0.0; score = 0.0; internal = ebundle_empty;
        idist = [||]; igain = [||]; has_entry = false }
    in
    let chains = Array.make (2 * n) dead in
    let live cid = chains.(cid) != dead in
    let next_cid = ref n in
    for i = 0 to n - 1 do
      chains.(i) <-
        { nodes = [| i |]; size = sizes.(i); weight = weights.(i); score = 0.0;
          internal = ebundle_empty; idist = [||]; igain = [||]; has_entry = i = entry }
    done;
    (* Cross edges per unordered chain pair, keyed by the packed
       (min, max) pair, and each chain's neighbours (every chain it has
       shared a cross bundle with, dead or alive). Candidate gains use
       the same keys. *)
    let module T = Support.Packed.Tbl in
    let pair_key a b =
      if a < b then Support.Packed.pack_unsafe ~src:a ~dst:b
      else Support.Packed.pack_unsafe ~src:b ~dst:a
    in
    let cross : ebundle T.t = T.create (2 * n) in
    let neighbors = Array.make (2 * n) [] in
    let add_cross a b es =
      if a <> b && ebundle_len es > 0 then begin
        let key = pair_key a b in
        match T.find_opt cross key with
        | Some prev -> T.replace cross key (rev_concat es prev)
        | None ->
          T.replace cross key (if ebundle_len es = 1 then es else rev_concat es ebundle_empty);
          neighbors.(a) <- b :: neighbors.(a);
          neighbors.(b) <- a :: neighbors.(b)
      end
    in
    for i = 0 to ebundle_len edges - 1 do
      let src = edges.esrc.(i) and dst = edges.edst.(i) in
      add_cross src dst (ebundle_singleton src dst edges.ew.(i))
    done;
    (* Candidate queue. Entries carry the chain ids they were computed
       for; an entry is stale if either id is no longer live. *)
    let pq : int Support.Pqueue.t = Support.Pqueue.create () in
    let candidates : float T.t = T.create (2 * n) in
    let eval_pair a_id b_id =
      if not (live a_id && live b_id) then -1
      else
        match T.find_opt cross (pair_key a_id b_id) with
        | None -> -1
        | Some es -> best_merge params st entry a_id chains.(a_id) chains.(b_id) es res
    in
    (* A candidate is ranked by [eval_pair] in the orientation it was
       pushed with, (merged, neighbour) after a merge, but [merge]
       re-evaluates it as (min, max) = (neighbour, merged). The two
       evaluations can differ (the split search only cuts the first
       chain, and float sums follow the edge order), so the evaluation
       that ranked a candidate is not reused for the merge itself: doing so
       changed 466 of the 1143 layouts of relink-family programs 0
       and 1. *)
    let push_pair a_id b_id =
      let key = pair_key a_id b_id in
      if eval_pair a_id b_id < 0 then T.remove candidates key
      else begin
        let gain = res.(0) in
        T.replace candidates key gain;
        if params.use_pqueue then ignore (Support.Pqueue.add pq ~priority:gain key)
      end
    in
    (* Seed the queue in the cross table's iteration order. Equal gains
       pop in push order, so that order is part of the output, and
       [Packed.Tbl] keeps it by hashing keys as (min, max) tuples. *)
    T.iter
      (fun key _ -> push_pair (Support.Packed.src key) (Support.Packed.dst key))
      cross;
    (* Pop the best candidate according to the configured strategy. *)
    let rec next_candidate () =
      if params.use_pqueue then
        match Support.Pqueue.pop_max pq with
        | None -> None
        | Some (key, gain) ->
          let a = Support.Packed.src key and b = Support.Packed.dst key in
          if live a && live b
             && (match T.find_opt candidates key with
                | Some g -> abs_float (g -. gain) < 1e-12
                | None -> false)
          then Some (a, b)
          else next_candidate ()
      else begin
        (* Linear rescan: the pre-Propeller O(n) retrieval, keeping the
           first of equal gains in table order. *)
        let best = ref None in
        T.iter
          (fun key g ->
            let a = Support.Packed.src key and b = Support.Packed.dst key in
            if live a && live b then
              match !best with
              | Some (_, _, bg) when bg >= g -> ()
              | Some _ | None -> best := Some (a, b, g))
          candidates;
        match !best with Some (a, b, _) -> Some (a, b) | None -> None
      end
    in
    let merge a_id b_id =
      let key = pair_key a_id b_id in
      let cut = eval_pair a_id b_id in
      if cut < 0 then
        (* The candidate table was stale; drop it. *)
        T.remove candidates key
      else begin
        incr merge_count;
        let cross_ab = Option.value ~default:ebundle_empty (T.find_opt cross key) in
        let merged_id = !next_cid in
        incr next_cid;
        chains.(merged_id) <-
          merge_chains params st merged_id chains.(a_id) chains.(b_id) cross_ab ~cut
            ~score:res.(1);
        chains.(a_id) <- dead;
        chains.(b_id) <- dead;
        T.remove cross key;
        T.remove candidates key;
        (* Re-route cross edges of both old chains to the merged chain
           and refresh affected candidates. *)
        let touched = ref [] in
        List.iter
          (fun old_id ->
            List.iter
              (fun nb ->
                if nb <> a_id && nb <> b_id && live nb then begin
                  let k = pair_key old_id nb in
                  (match T.find_opt cross k with
                  | Some es ->
                    T.remove cross k;
                    T.remove candidates k;
                    add_cross merged_id nb es
                  | None -> ());
                  touched := nb :: !touched
                end)
              neighbors.(old_id);
            neighbors.(old_id) <- [])
          [ a_id; b_id ];
        List.sort_uniq Int.compare !touched |> List.iter (fun nb -> push_pair merged_id nb)
      end
    in
    let rec loop () =
      match next_candidate () with
      | None -> ()
      | Some (a, b) ->
        merge a b;
        loop ()
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
