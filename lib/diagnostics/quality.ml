type t = {
  total_samples : int;
  total_records : int;
  mapped_blocks : int;
  sampled_blocks : int;
  block_coverage : float;
  byte_coverage : float;
  func_coverage : float;
  mismatch_records : int;
  mismatch_rate : float;
  concentration_p90 : float;
  pebs_samples : int;
}

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* Fraction of sampled blocks needed to cover [mass] of the samples,
   hottest-first. 0 when nothing was sampled. *)
let concentration ~mass counts =
  let counts = List.filter (fun c -> c > 0) counts in
  match counts with
  | [] -> 0.0
  | _ ->
    let arr = Array.of_list counts in
    Array.sort (fun a b -> compare b a) arr;
    let total = Array.fold_left ( + ) 0 arr in
    let target = mass *. float_of_int total in
    let n = Array.length arr in
    let rec walk i cum =
      if i >= n then n
      else begin
        let cum = cum + arr.(i) in
        if float_of_int cum >= target then i + 1 else walk (i + 1) cum
      end
    in
    float_of_int (walk 0 0) /. float_of_int n

let analyze ?pebs ~(dcfg : Propeller.Dcfg.t) ~(profile : Perfmon.Lbr.profile) () =
  let blocks = dcfg.Propeller.Dcfg.block_index.mblocks in
  let mapped_blocks = Array.length blocks in
  let sampled_blocks = ref 0 in
  let mapped_bytes = ref 0 in
  let sampled_bytes = ref 0 in
  let mapped_funcs = Hashtbl.create 256 in
  let sampled_funcs = Hashtbl.create 256 in
  Array.iter
    (fun (b : Propeller.Dcfg.mblock) ->
      mapped_bytes := !mapped_bytes + b.msize;
      Hashtbl.replace mapped_funcs b.owner ();
      if b.count > 0 then begin
        incr sampled_blocks;
        sampled_bytes := !sampled_bytes + b.msize;
        Hashtbl.replace sampled_funcs b.owner ()
      end)
    blocks;
  (* Stale-profile detection from the raw records: an endpoint that maps
     to no block of this binary cannot have come from it. The branch
     retires at its end address, so the source lookup probes [src - 1]
     (matching Dcfg's attribution). *)
  let mismatch_records = ref 0 in
  let total_branch = ref 0 in
  Perfmon.Lbr.iter_pairs
    (fun ~src ~dst n ->
      total_branch := !total_branch + n;
      let maps addr = Propeller.Dcfg.find_block dcfg addr <> None in
      if not (maps (src - 1) && maps dst) then mismatch_records := !mismatch_records + n)
    profile.Perfmon.Lbr.branches;
  let counts = Array.to_list (Array.map (fun (b : Propeller.Dcfg.mblock) -> b.count) blocks) in
  {
    total_samples = profile.Perfmon.Lbr.num_samples;
    total_records = profile.Perfmon.Lbr.num_records;
    mapped_blocks;
    sampled_blocks = !sampled_blocks;
    block_coverage = ratio !sampled_blocks mapped_blocks;
    byte_coverage = ratio !sampled_bytes !mapped_bytes;
    func_coverage = ratio (Hashtbl.length sampled_funcs) (Hashtbl.length mapped_funcs);
    mismatch_records = !mismatch_records;
    mismatch_rate = ratio !mismatch_records !total_branch;
    concentration_p90 = concentration ~mass:0.9 counts;
    pebs_samples =
      (match pebs with Some p -> p.Perfmon.Pebs.num_samples | None -> 0);
  }

let to_json q =
  Obs.Json.Obj
    [
      ("total_samples", Obs.Json.Int q.total_samples);
      ("total_records", Obs.Json.Int q.total_records);
      ("mapped_blocks", Obs.Json.Int q.mapped_blocks);
      ("sampled_blocks", Obs.Json.Int q.sampled_blocks);
      ("block_coverage", Obs.Json.Float q.block_coverage);
      ("byte_coverage", Obs.Json.Float q.byte_coverage);
      ("func_coverage", Obs.Json.Float q.func_coverage);
      ("mismatch_records", Obs.Json.Int q.mismatch_records);
      ("mismatch_rate", Obs.Json.Float q.mismatch_rate);
      ("concentration_p90", Obs.Json.Float q.concentration_p90);
      ("pebs_samples", Obs.Json.Int q.pebs_samples);
    ]
