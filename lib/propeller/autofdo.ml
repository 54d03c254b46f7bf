(* Average encoded instruction size used to convert block byte sizes to
   instruction counts. Only relative weights matter downstream, so a
   constant is enough. *)
let bytes_per_inst = 4

let bump tbl key n =
  match Hashtbl.find_opt tbl key with
  | Some c -> Hashtbl.replace tbl key (c + n)
  | None -> Hashtbl.add tbl key n

let synthesize ~period ~(samples : Perfmon.Sampler.profile) ~(program : Ir.Program.t)
    ~(binary : Linker.Binary.t) =
  if Array.length binary.Linker.Binary.bb_addr_map = 0 then
    invalid_arg "Autofdo.synthesize: binary has no .llvm_bb_addr_map";
  let period = max 1 period in
  let index = Dcfg.interval_index binary in
  let blocks = index.mblocks in
  let n = Array.length blocks in
  let resid = Array.make n 0 in
  Hashtbl.iter
    (fun leaf c ->
      match Dcfg.find_in index leaf with
      | Some (i, _) -> resid.(i) <- resid.(i) + c
      | None -> ())
    samples.Perfmon.Sampler.leaves;
  (* IR block -> index entry, [-1] where unmapped: the block's position
     in the binary, then the entry at that position. *)
  let entry_at = Array.make (Array.length binary.blocks) (-1) in
  Array.iteri (fun i p -> entry_at.(p) <- i) index.positions;
  let entry_of (f : Ir.Func.t) =
    let pos = Linker.Binary.block_positions binary f.name in
    fun id -> if id >= 0 && id < Array.length pos && pos.(id) >= 0 then entry_at.(pos.(id)) else -1
  in
  (* Exact instruction count per block, from the IR (a real tool reads
     it off the disassembly). Encoded sizes vary per instruction, so
     msize / bytes_per_inst is only the fallback for blocks the program
     view does not cover. *)
  let insts = Array.make n 0 in
  Array.iteri
    (fun i (b : Dcfg.mblock) -> insts.(i) <- max 1 (b.size / bytes_per_inst))
    blocks;
  Ir.Program.iter_funcs program (fun (f : Ir.Func.t) ->
      let entry = entry_of f in
      Array.iter
        (fun (blk : Ir.Block.t) ->
          match entry blk.id with
          | -1 -> ()
          | i -> insts.(i) <- max 1 (List.length blk.body + 1))
        f.blocks);
  (* Size-normalized execution-count estimate: a sample lands in a block
     once every [period] instructions executed there, so
     exec ~= samples * period / insts(block). *)
  let est = Array.make n 0 in
  for i = 0 to n - 1 do
    if resid.(i) > 0 then est.(i) <- max 1 (resid.(i) * period / insts.(i))
  done;
  let profile = Perfmon.Lbr.create_profile () in
  let records = ref 0 in
  let add tbl ~src ~dst w =
    Perfmon.Lbr.add_pair tbl ~src ~dst w;
    records := !records + w
  in
  (* Block residency: a one-byte self-range pins the block's count
     without implying any fall-through edge (Dcfg's range walk stops
     before the next block starts).

     An unsampled block of a sampled function is pinned at count 1 —
     kept out of the cold section — unless its absence is statistically
     meaningful: "no samples" cannot distinguish cold from
     merely-brief, and splitting on an uninformative zero exiles
     executed blocks, whose later executions pay far-jump icache
     misses (the over-splitting failure AutoFDO deployments guard
     against with conservative split thresholds). The confidence test:
     had the block run as often as the function's hottest block, would
     it have drawn at least [zero_confidence] samples? If yes, the
     zero says the block is far off the hot path and exiling it is
     safe; if no, the function is too lightly sampled to trust zeros.
     Functions with no samples anywhere keep all-zero counts and stay
     out of the hot set entirely, so provably-cold code is still
     exiled. *)
  let zero_confidence = 5 in
  let est_max : (string, int) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun i (b : Dcfg.mblock) ->
      if est.(i) > 0 then
        match Hashtbl.find_opt est_max b.func with
        | Some m when m >= est.(i) -> ()
        | _ -> Hashtbl.replace est_max b.func est.(i))
    blocks;
  Array.iteri
    (fun i (b : Dcfg.mblock) ->
      if b.size > 0 then begin
        if est.(i) > 0 then add profile.Perfmon.Lbr.ranges ~src:b.addr ~dst:(b.addr + 1) est.(i)
        else begin
          match Hashtbl.find_opt est_max b.func with
          | Some m when m * insts.(i) < zero_confidence * period ->
            add profile.Perfmon.Lbr.ranges ~src:b.addr ~dst:(b.addr + 1) 1
          | _ -> ()
        end
      end)
    blocks;
  (* Synthesized intra-function edges, by flow inference: only the
     static successor lists ([Term.successors]) and the block residency
     estimates are consulted — the true and PGO-trained branch
     probabilities are ground truth a sampling profiler cannot see.

     A naive residency-proportional split sends real weight down both
     arms of every conditional, which misleads Ext-TSP into breaking
     natural fall-throughs (measurably worse than the baseline layout).
     Instead we fit edge weights to the two flow-conservation
     constraints the counts imply — out-flow of a block sums to its
     count, in-flow likewise (function entries excluded: their count
     arrives via calls) — with a few rounds of iterative proportional
     fitting, the cheap deterministic cousin of LLVM's profi solver.

     Blocks the sampler never hit (small or briefly-live) join the
     network as *free* nodes: no count constraint, just a balance step
     keeping in-flow = out-flow. Conservation then routes flow through
     them exactly when the sampled neighbours demand it, so an
     executed-but-unsampled block keeps a nonzero count instead of
     being exiled to the cold section (the profi trick). *)
  let ipf_rounds = 10 in
  Ir.Program.iter_funcs program (fun (f : Ir.Func.t) ->
      (* Local edge list in block order: (src idx, dst idx, weight).
         Free-node edges start at an epsilon weight: visible to the
         balance step, negligible against sampled counts. *)
      let edges = ref [] in
      let entry = entry_of f in
      Array.iter
        (fun (blk : Ir.Block.t) ->
          match entry blk.id with
          | -1 -> ()
          | i ->
            if blocks.(i).size > 0 then
              List.iter
                (fun s ->
                  match entry s with
                  | -1 -> ()
                  | j ->
                    let init = if est.(j) > 0 then float_of_int est.(j) else 1.0 in
                    edges := (i, j, ref init) :: !edges)
                (Ir.Term.successors blk.term))
        f.blocks;
      let edges = List.rev !edges in
      if List.exists (fun (i, j, _) -> est.(i) > 0 || est.(j) > 0) edges then begin
        let group key =
          let tbl = Hashtbl.create 16 in
          List.iter
            (fun ((i, j, r) : int * int * float ref) ->
              let k = key i j in
              match Hashtbl.find_opt tbl k with
              | Some cell -> cell := r :: !cell
              | None -> Hashtbl.add tbl k (ref [ r ]))
            edges;
          tbl
        in
        let outs = group (fun i _ -> i) and ins = group (fun _ j -> j) in
        let sum_cell cell = List.fold_left (fun acc r -> acc +. !r) 0.0 !cell in
        let scale_to tbl k target =
          match Hashtbl.find_opt tbl k with
          | None -> ()
          | Some cell ->
            let sum = sum_cell cell in
            if sum > 0.0 then List.iter (fun r -> r := !r *. (target /. sum)) !cell
        in
        let scale tbl keep =
          Hashtbl.iter
            (fun k cell ->
              if keep k && est.(k) > 0 then begin
                let sum = sum_cell cell in
                if sum > 0.0 then begin
                  let s = float_of_int est.(k) /. sum in
                  List.iter (fun r -> r := !r *. s) !cell
                end
              end)
            tbl
        in
        (* Deterministic free-node order for the balance step. *)
        let free_nodes =
          List.sort_uniq compare
            (List.concat_map
               (fun (i, j, _) ->
                 List.filter (fun k -> est.(k) = 0) [ i; j ])
               edges)
        in
        for _ = 1 to ipf_rounds do
          scale outs (fun _ -> true);
          (* A function entry's count arrives on call arcs, not intra
             edges; in-scaling it would force spurious back-edge flow. *)
          scale ins (fun j -> blocks.(j).block <> 0);
          List.iter
            (fun k ->
              let in_sum =
                match Hashtbl.find_opt ins k with Some c -> sum_cell c | None -> 0.0
              in
              let out_sum =
                match Hashtbl.find_opt outs k with Some c -> sum_cell c | None -> 0.0
              in
              (* A free node with no successors in the network is a
                 sink (ret/exit); one with no predecessors keeps its
                 epsilon out-flow. Both sums present: meet halfway. *)
              if in_sum > 0.0 && out_sum > 0.0 then begin
                let t = (in_sum +. out_sum) /. 2.0 in
                scale_to ins k t;
                scale_to outs k t
              end)
            free_nodes
        done;
        List.iter
          (fun (i, j, r) ->
            let w = int_of_float (Float.round !r) in
            (* Edges touching a free node must show real routed flow:
               a bare epsilon remnant would mark every statically
               reachable block hot and undo splitting entirely. *)
            let floor = if est.(i) = 0 || est.(j) = 0 then 2 else 1 in
            if w >= floor then begin
              (* The record retires at the block's end address; Dcfg
                 probes src-1, the block's last byte. *)
              let src_end = blocks.(i).addr + blocks.(i).size in
              add profile.Perfmon.Lbr.branches ~src:src_end ~dst:blocks.(j).addr w
            end)
          edges
      end);
  (* Call arcs from the stack walks. The (site, callee-entry) pairs are
     real addresses from the run, so Dcfg's entry-landing rule
     classifies them as calls — but their raw counts are at
     stack-residency scale (every sample credits every frame pair on
     the stack), not call-frequency scale. Re-emitting them verbatim
     inflates callee entry-block counts by orders of magnitude against
     the flow-fitted intra weights. Rescale each callee's incoming arcs
     to sum to its entry block's execution estimate, preserving the
     relative caller mix (the signal hfsort wants). *)
  let arc_in : (int, int) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun (_, centry) c -> bump arc_in centry c)
    samples.Perfmon.Sampler.arcs;
  (* Fallback scale for callees whose entry block drew no samples: the
     global est-mass-per-arc-count ratio of the callees that did. *)
  let cov_est = ref 0 and cov_arc = ref 0 in
  Hashtbl.iter
    (fun centry total ->
      match Dcfg.find_in index centry with
      | Some (i, b) when b.addr = centry && b.block = 0 && est.(i) > 0 ->
        cov_est := !cov_est + est.(i);
        cov_arc := !cov_arc + total
      | _ -> ())
    arc_in;
  let fallback_scale =
    if !cov_arc > 0 then float_of_int !cov_est /. float_of_int !cov_arc else 1.0
  in
  Hashtbl.iter
    (fun (site, centry) c ->
      let w =
        match Dcfg.find_in index centry with
        | Some (i, b) when b.addr = centry && b.block = 0 && est.(i) > 0 ->
          let total = max 1 (Hashtbl.find arc_in centry) in
          est.(i) * c / total
        | _ -> int_of_float (Float.round (float_of_int c *. fallback_scale))
      in
      add profile.Perfmon.Lbr.branches ~src:site ~dst:centry (max 1 w))
    samples.Perfmon.Sampler.arcs;
  profile.Perfmon.Lbr.num_samples <- samples.Perfmon.Sampler.num_samples;
  profile.Perfmon.Lbr.num_records <- !records;
  profile
