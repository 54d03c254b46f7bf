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

(* [assemble cross ai bi] is reverse(cross) ++ reverse(ai) ++ bi — the
   bundle form of [List.rev_append cross (List.rev_append ai bi)], the
   internal edge set of the chain an (a, b) merge makes. *)
let assemble cross ai bi = rev_concat cross (rev_concat ai bi)

type chain = {
  nodes : int array;
  size : int;  (** total code bytes *)
  weight : float;  (** total execution count *)
  score : float;  (** Ext-TSP score of internal edges under this order *)
  internal : ebundle;  (** edges with both ends inside *)
  has_entry : bool;  (** holds the problem's entry node *)
}

(* Scratch state threaded through scoring to avoid re-allocating
   position maps for every candidate evaluation. [abuf] holds the
   candidate arrangement under evaluation, so best_merge never builds
   throwaway Array.append/concat/sub arrays. *)
type scratch = {
  pos : int array;
  end_pos : int array;
  stamp : int array;
  mutable cur : int;
  abuf : int array;
}

let make_scratch n =
  {
    pos = Array.make n 0;
    end_pos = Array.make n 0;
    stamp = Array.make n (-1);
    cur = 0;
    abuf = Array.make n 0;
  }

let scratch = make_scratch

(* Score the first [len] nodes of [arr] (ids in layout order) against
   the edge sequence reverse(cross) ++ reverse(ai) ++ bi — a candidate
   merge's edge set, read in place rather than assembled; edges with an
   endpoint outside contribute 0. One left-to-right accumulation over
   that sequence: the exact float order of the historical
   List.fold_left over the assembled list. *)
let score_arrangement p scratch sizes arr len ~cross ~ai (bi : ebundle) =
  scratch.cur <- scratch.cur + 1;
  let cur = scratch.cur in
  let pos = scratch.pos and end_pos = scratch.end_pos and stamp = scratch.stamp in
  let off = ref 0 in
  for i = 0 to len - 1 do
    let n = Array.unsafe_get arr i in
    Array.unsafe_set pos n !off;
    off := !off + Array.unsafe_get sizes n;
    Array.unsafe_set end_pos n !off;
    Array.unsafe_set stamp n cur
  done;
  let acc = ref 0.0 in
  let nc = ebundle_len cross and na = ebundle_len ai in
  let nca = nc + na in
  for k = 0 to nca + ebundle_len bi - 1 do
    let e = if k < nc then cross else if k < nca then ai else bi in
    let i = if k < nc then nc - 1 - k else if k < nca then nca - 1 - k else k - nca in
    let src = Array.unsafe_get e.esrc i and dst = Array.unsafe_get e.edst i in
    if Array.unsafe_get stamp src = cur && Array.unsafe_get stamp dst = cur then
      acc :=
        !acc
        +. edge_gain p (Array.unsafe_get e.ew i)
             (Array.unsafe_get pos dst - Array.unsafe_get end_pos src)
  done;
  !acc

let score_bundle p scratch sizes arr len e =
  score_arrangement p scratch sizes arr len ~cross:ebundle_empty ~ai:ebundle_empty e

let score_into ?(params = default_params) scratch (p : Problem.t) arr =
  score_bundle params scratch p.sizes arr (Array.length arr) (Problem.flat p)

let score ?(params = default_params) ~order (p : Problem.t) =
  let arr = Array.of_list order in
  let scratch = make_scratch (Array.length p.sizes) in
  score_bundle params scratch p.sizes arr (Array.length arr) (Problem.flat p)

let score_norm ?(params = default_params) ~order (p : Problem.t) =
  let total = Problem.total_weight p in
  if total <= 0.0 then 0.0 else score ~params ~order p /. total

(* Evaluate the best way to merge chains [a] and [b]. Returns
   (gain, merged node array, merged score) for the best arrangement that
   keeps [entry] first when present, or None if no arrangement is valid
   or profitable. Candidates are materialised into the shared
   [scratch.abuf] (never allocated); only the winner is copied out. *)
let best_merge p scratch sizes entry a b cross =
  let na = Array.length a.nodes and nb = Array.length b.nodes in
  let total = na + nb in
  let buf = scratch.abuf in
  let constrained = a.has_entry || b.has_entry in
  (* Candidate descriptors: 0 = a++b, 1 = b++a, 2 = split (a[0..k) ++ b
     ++ a[k..)). Trial order and keep-first tie-breaking mirror the
     historical code exactly. *)
  let best_s = ref 0.0 and best_kind = ref (-1) and best_split = ref 0 in
  let fill kind split =
    match kind with
    | 0 ->
      Array.blit a.nodes 0 buf 0 na;
      Array.blit b.nodes 0 buf na nb
    | 1 ->
      Array.blit b.nodes 0 buf 0 nb;
      Array.blit a.nodes 0 buf nb na
    | _ ->
      Array.blit a.nodes 0 buf 0 split;
      Array.blit b.nodes 0 buf split nb;
      Array.blit a.nodes split buf (split + nb) (na - split)
  in
  let consider kind split first_node =
    if not (constrained && first_node <> entry) then begin
      fill kind split;
      let s = score_arrangement p scratch sizes buf total ~cross ~ai:a.internal b.internal in
      if !best_kind < 0 || s > !best_s then begin
        best_s := s;
        best_kind := kind;
        best_split := split
      end
    end
  in
  consider 0 0 a.nodes.(0);
  consider 1 0 b.nodes.(0);
  (* Split [a] at every interior point and wedge [b] inside: the
     X1-Y-X2 merge type from Newell & Pupyrev. *)
  if na <= p.max_split_chain && na > 1 then
    for split = 1 to na - 1 do
      consider 2 split a.nodes.(0)
    done;
  if !best_kind < 0 then None
  else begin
    let s = !best_s in
    let gain = s -. a.score -. b.score in
    if gain > 1e-9 then begin
      let arr = Array.make total 0 in
      fill !best_kind !best_split;
      Array.blit buf 0 arr 0 total;
      Some (gain, arr, s)
    end
    else None
  end

let order ?(params = default_params) (problem : Problem.t) =
  let merge_count = merge_count () in
  merge_count := 0;
  let sizes = problem.sizes and weights = problem.weights and entry = problem.entry in
  let n = Array.length sizes in
  if n = 0 then []
  else begin
    let edges = Problem.flat problem in
    let scratch = make_scratch n in
    (* Chain state, indexed by chain id. Ids 0..n-1 are the singleton
       chains; every merge takes the next fresh id (at most n - 1 merges,
       so ids stay below 2n), which is how stale candidates are caught. *)
    let dead =
      { nodes = [||]; size = 0; weight = 0.0; score = 0.0; internal = ebundle_empty;
        has_entry = false }
    in
    let chains = Array.make (2 * n) dead in
    let live cid = chains.(cid) != dead in
    let next_cid = ref n in
    for i = 0 to n - 1 do
      chains.(i) <-
        { nodes = [| i |]; size = sizes.(i); weight = weights.(i); score = 0.0;
          internal = ebundle_empty; has_entry = i = entry }
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
          T.replace cross key (rev_concat es ebundle_empty);
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
      if not (live a_id && live b_id) then None
      else
        match T.find_opt cross (pair_key a_id b_id) with
        | None -> None
        | Some es -> best_merge params scratch sizes entry chains.(a_id) chains.(b_id) es
    in
    (* A candidate is ranked by [eval_pair] in the orientation it was
       pushed with, (merged, neighbour) after a merge, but [merge]
       re-evaluates it as (min, max) = (neighbour, merged). The two
       evaluations can differ (the split search only cuts the first
       chain, and float sums follow the edge order), so the evaluation
       that ranked a candidate is not reused for the merge itself: doing so
       changed 466 of the 1143 layouts of the two programs the pinned
       layout test covers. *)
    let push_pair a_id b_id =
      let key = pair_key a_id b_id in
      match eval_pair a_id b_id with
      | None -> T.remove candidates key
      | Some (gain, _, _) ->
        T.replace candidates key gain;
        if params.use_pqueue then ignore (Support.Pqueue.add pq ~priority:gain key)
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
      match eval_pair a_id b_id with
      | None ->
        (* The candidate table was stale; drop it. *)
        T.remove candidates key
      | Some (_, arr, s) ->
        incr merge_count;
        let a = chains.(a_id) and b = chains.(b_id) in
        let cross_ab = Option.value ~default:ebundle_empty (T.find_opt cross key) in
        let merged_id = !next_cid in
        incr next_cid;
        chains.(merged_id) <-
          {
            nodes = arr;
            size = a.size + b.size;
            weight = a.weight +. b.weight;
            score = s;
            internal = assemble cross_ab a.internal b.internal;
            has_entry = a.has_entry || b.has_entry;
          };
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
