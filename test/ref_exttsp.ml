(* The Ext-TSP merge loop as it stood before per-chain cross bundles
   and the flat candidate heap, kept here only as the oracle that
   [Layout.Exttsp.order] must reproduce order for order and merge for
   merge. It keys cross edges and candidate gains by (min, max) chain
   pairs in [Support.Packed.Tbl]s, keeps per-chain neighbour lists that
   include dead chains, scores every cut in full and retrieves the best
   merge from a boxed binary heap (or a linear rescan). Its flat edges
   come from [flat], the [Hashtbl]-based dedupe [Layout.Problem.flat]
   replaced. *)

type params = Layout.Exttsp.params

(* [Layout.Problem.flat] as a [Hashtbl] over packed keys: duplicates
   summed in input order, self-edges and weights <= 0 dropped, sorted
   by (src, dst). *)
let flat (p : Layout.Problem.t) : Layout.Problem.flat =
  let tbl : (int, float) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun (src, dst, w) ->
      if src <> dst && w > 0.0 then begin
        let key = Support.Packed.pack ~src ~dst in
        match Hashtbl.find_opt tbl key with
        | Some w0 -> Hashtbl.replace tbl key (w0 +. w)
        | None -> Hashtbl.add tbl key w
      end)
    p.edges;
  let keys = Array.of_seq (Hashtbl.to_seq_keys tbl) in
  Array.sort compare keys;
  {
    esrc = Array.map Support.Packed.src keys;
    edst = Array.map Support.Packed.dst keys;
    ew = Array.map (Hashtbl.find tbl) keys;
  }

(* A max-heap of (gain, push sequence, key); equal gains pop in push
   order. *)
module Heap = struct
  type entry = { prio : float; seq : int; key : int }

  type t = { mutable heap : entry array; mutable size : int; mutable next : int }

  let create () = { heap = [||]; size = 0; next = 0 }

  let outranks a b = a.prio > b.prio || (a.prio = b.prio && a.seq < b.seq)

  let swap h i j =
    let t = h.heap.(i) in
    h.heap.(i) <- h.heap.(j);
    h.heap.(j) <- t

  let rec up h i =
    let parent = (i - 1) / 2 in
    if i > 0 && outranks h.heap.(i) h.heap.(parent) then begin
      swap h i parent;
      up h parent
    end

  let rec down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let best = ref i in
    if l < h.size && outranks h.heap.(l) h.heap.(!best) then best := l;
    if r < h.size && outranks h.heap.(r) h.heap.(!best) then best := r;
    if !best <> i then begin
      swap h i !best;
      down h !best
    end

  let add h prio key =
    let e = { prio; seq = h.next; key } in
    h.next <- h.next + 1;
    if h.size = Array.length h.heap then begin
      let fresh = Array.make (max 16 (2 * h.size)) e in
      Array.blit h.heap 0 fresh 0 h.size;
      h.heap <- fresh
    end;
    h.heap.(h.size) <- e;
    h.size <- h.size + 1;
    up h (h.size - 1)

  let pop h =
    if h.size = 0 then None
    else begin
      let top = h.heap.(0) in
      h.size <- h.size - 1;
      h.heap.(0) <- h.heap.(h.size);
      down h 0;
      Some (top.key, top.prio)
    end
end

let edge_gain (p : params) w dist =
  if dist = 0 then p.fallthrough_weight *. w
  else if dist > 0 && dist <= p.forward_window then
    p.forward_weight *. w *. (1.0 -. (float_of_int dist /. float_of_int p.forward_window))
  else if dist < 0 && -dist <= p.backward_window then
    p.backward_weight *. w *. (1.0 -. (float_of_int (-dist) /. float_of_int p.backward_window))
  else 0.0

type ebundle = Layout.Problem.flat = { esrc : int array; edst : int array; ew : float array }

let ebundle_empty = { esrc = [||]; edst = [||]; ew = [||] }

let ebundle_len e = Array.length e.esrc

(* reverse(x) ++ y *)
let rev_concat x y =
  let nx = ebundle_len x in
  let pick xa ya i = if i < nx then xa.(nx - 1 - i) else ya.(i - nx) in
  let len = nx + ebundle_len y in
  {
    esrc = Array.init len (pick x.esrc y.esrc);
    edst = Array.init len (pick x.edst y.edst);
    ew = Array.init len (pick x.ew y.ew);
  }

type chain = {
  nodes : int array;
  size : int;
  weight : float;
  score : float;
  internal : ebundle;
  idist : int array;
  igain : float array;
  has_entry : bool;
}

type nodes = { sizes : int array; owner : int array; off : int array; rank : int array }

(* Every cut of [a] that [b] can be inserted at (|a|, 0, 1, ..), scored
   in the order reverse(cross), reverse(a.internal), b.internal. *)
let best_merge (p : params) st entry a_id a b cross res =
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
        let src = cross.esrc.(i) and dst = cross.edst.(i) in
        let dist =
          if owner.(src) = a_id then
            cut_off + off.(dst) - (off.(src) + sizes.(src) + if rank.(src) >= c then bsize else 0)
          else
            off.(dst) + (if rank.(dst) >= c then bsize else 0) - (cut_off + off.(src) + sizes.(src))
        in
        acc := !acc +. edge_gain p cross.ew.(i) dist
      done;
      let ai = a.internal in
      for i = ebundle_len ai - 1 downto 0 do
        let src_before = rank.(ai.esrc.(i)) < c and dst_before = rank.(ai.edst.(i)) < c in
        acc :=
          !acc
          +.
          if src_before = dst_before then a.igain.(i)
          else edge_gain p ai.ew.(i) (a.idist.(i) + if src_before then bsize else -bsize)
      done;
      Array.iter (fun g -> acc := !acc +. g) b.igain;
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

let merge_chains p st merged_id a b cross ~cut ~score =
  let na = Array.length a.nodes and nb = Array.length b.nodes in
  let nodes = Array.make (na + nb) 0 in
  Array.blit a.nodes 0 nodes 0 cut;
  Array.blit b.nodes 0 nodes cut nb;
  Array.blit a.nodes cut nodes (cut + nb) (na - cut);
  let o = ref 0 in
  Array.iteri
    (fun r v ->
      st.owner.(v) <- merged_id;
      st.off.(v) <- !o;
      st.rank.(v) <- r;
      o := !o + st.sizes.(v))
    nodes;
  let internal = rev_concat cross (rev_concat a.internal b.internal) in
  let idist =
    Array.init (ebundle_len internal) (fun k ->
        let src = internal.esrc.(k) and dst = internal.edst.(k) in
        st.off.(dst) - (st.off.(src) + st.sizes.(src)))
  in
  {
    nodes;
    size = a.size + b.size;
    weight = a.weight +. b.weight;
    score;
    internal;
    idist;
    igain = Array.mapi (fun k d -> edge_gain p internal.ew.(k) d) idist;
    has_entry = a.has_entry || b.has_entry;
  }

(* The layout and the number of merges it took. *)
let order ?(params = Layout.Exttsp.default_params) (problem : Layout.Problem.t) =
  let merges = ref 0 in
  let sizes = problem.sizes and weights = problem.weights and entry = problem.entry in
  let n = Array.length sizes in
  if n = 0 then ([], 0)
  else begin
    let edges = flat problem in
    let st = { sizes; owner = Array.init n Fun.id; off = Array.make n 0; rank = Array.make n 0 } in
    let res = Array.make 2 0.0 in
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
      add_cross src dst { esrc = [| src |]; edst = [| dst |]; ew = [| edges.ew.(i) |] }
    done;
    let pq = Heap.create () in
    let candidates : float T.t = T.create (2 * n) in
    let eval_pair a_id b_id =
      if not (live a_id && live b_id) then -1
      else
        match T.find_opt cross (pair_key a_id b_id) with
        | None -> -1
        | Some es -> best_merge params st entry a_id chains.(a_id) chains.(b_id) es res
    in
    let push_pair a_id b_id =
      let key = pair_key a_id b_id in
      if eval_pair a_id b_id < 0 then T.remove candidates key
      else begin
        let gain = res.(0) in
        T.replace candidates key gain;
        if params.use_pqueue then Heap.add pq gain key
      end
    in
    T.iter (fun key _ -> push_pair (Support.Packed.src key) (Support.Packed.dst key)) cross;
    let rec next_candidate () =
      if params.use_pqueue then
        match Heap.pop pq with
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
        let best = ref None in
        T.iter
          (fun key g ->
            let a = Support.Packed.src key and b = Support.Packed.dst key in
            if live a && live b then
              match !best with
              | Some (_, _, bg) when bg >= g -> ()
              | Some _ | None -> best := Some (a, b, g))
          candidates;
        Option.map (fun (a, b, _) -> (a, b)) !best
      end
    in
    let merge a_id b_id =
      let key = pair_key a_id b_id in
      let cut = eval_pair a_id b_id in
      if cut < 0 then T.remove candidates key
      else begin
        incr merges;
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
    (List.concat_map (fun c -> Array.to_list c.nodes) sorted, !merges)
  end
