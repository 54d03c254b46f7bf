open Testutil

(* --- The fleet telemetry plane: Machine / Aggregate / Rollout ----- *)

(* A small shape so fleet runs stay quick; steady traffic and dense
   sampling make the relink loop's fixed point reachable in-test. *)
let fleet_spec =
  {
    (Option.get (Progen.Suite.by_name "505.mcf")) with
    Progen.Spec.name = "fleetprog";
    num_units = 3;
    requests = 20;
  }

let quiesced ~cycles ?sabotage_cycle () =
  {
    Fleet.Rollout.default_config with
    machines = 3;
    cycles;
    canary = 1;
    requests = 20;
    jitter_pct = 0.0;
    window = 1;
    sabotage_cycle;
    lbr = { Fleet.Rollout.default_config.lbr with Perfmon.Lbr.period = 1 };
  }

let run_fleet ?(jobs = 1) ~config () =
  let recorder = Obs.Recorder.create () in
  let ctx = Support.Ctx.create ~recorder ~jobs () in
  let program = Progen.Generate.program fleet_spec in
  let result = Fleet.Rollout.run ~config ~ctx ~program ~name:fleet_spec.name () in
  (result, recorder)

let test_deterministic_across_jobs () =
  let config = quiesced ~cycles:2 () in
  let r1, _ = run_fleet ~jobs:1 ~config () in
  let r2, _ = run_fleet ~jobs:2 ~config () in
  check ts "JSON report identical at jobs 1 and 2"
    (Obs.Json.to_string (Fleet.Rollout.to_json r1))
    (Obs.Json.to_string (Fleet.Rollout.to_json r2));
  check ts "health report identical" (Fleet.Rollout.report r1) (Fleet.Rollout.report r2)

(* Convergence needs real margins: on toy shapes the LBR ring's
   end-of-run tail adds +/-1 count noise that can flip Ext-TSP
   near-ties forever.  The full 505.mcf shape has wide margins and
   reaches its fixed point after exactly two relinks. *)
let test_converges_within_two_relinks () =
  let spec =
    { (Option.get (Progen.Suite.by_name "505.mcf")) with Progen.Spec.name = "fleetprog" }
  in
  let config =
    {
      Fleet.Rollout.default_config with
      machines = 4;
      cycles = 4;
      canary = 1;
      requests = 60;
      jitter_pct = 0.0;
      window = 1;
      sabotage_cycle = None;
      lbr = { Fleet.Rollout.default_config.lbr with Perfmon.Lbr.period = 1 };
    }
  in
  let recorder = Obs.Recorder.create () in
  let ctx = Support.Ctx.create ~recorder ~jobs:1 () in
  let program = Progen.Generate.program spec in
  let r = Fleet.Rollout.run ~config ~ctx ~program ~name:spec.name () in
  check tb "fleet converged" true r.Fleet.Rollout.converged;
  (match r.converged_after_relinks with
  | Some n -> check tb "within two relinks" true (n <= 2)
  | None -> Alcotest.fail "converged without a relink count");
  (* Once converged, the loop stays converged: the canonical aggregate
     is a fixed point under steady traffic. *)
  let last = List.nth r.reports (List.length r.reports - 1) in
  check tb "last cycle still converged" true (last.verdict = Fleet.Rollout.Converged);
  check ts "candidate digest is the deployed digest" r.final_digest last.candidate_digest

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_sabotage_rolls_back () =
  let config = quiesced ~cycles:2 ~sabotage_cycle:2 () in
  let r, recorder = run_fleet ~config () in
  check ti "one rollback" 1 r.Fleet.Rollout.rollbacks;
  let c2 = List.nth r.reports 1 in
  check tb "cycle 2 rolled back" true (c2.verdict = Fleet.Rollout.Rolled_back);
  (match c2.judged with
  | None -> Alcotest.fail "rollback must carry a judgment"
  | Some o -> check tb "judge saw a regression" false (Diagnostics.Compare.ok o));
  check tb "verdict in the health report" true (contains (Fleet.Rollout.report r) "rolled_back");
  check tb "verdict in the flight dump" true
    (contains (Obs.Recorder.flight_dump recorder) "fleet.rollback");
  (* The sabotaged candidate never reached the fleet. *)
  check ts "deployed digest is the promoted gen-1 image" r.final_digest
    (List.nth r.reports 0).candidate_digest

(* --- Aggregate: order independence -------------------------------- *)

(* Shards from two different layouts of the same program: the stale
   half must translate through the canonical decode/encode path. *)
let mixed_shards () =
  let program = Progen.Generate.program fleet_spec in
  let ctx = Support.Ctx.create ~recorder:(Obs.Recorder.create ()) ~jobs:1 () in
  let env = Buildsys.Driver.make_env ~ctx () in
  let cg_meta, ld_meta = Propeller.Pipeline.metadata_options in
  let build name cg ld =
    Buildsys.Driver.build env ~name ~program ~codegen_options:cg ~link_options:ld
  in
  let gen0 = build "aggprog.fleet" cg_meta ld_meta in
  let lbr = { Perfmon.Lbr.default_config with period = 1 } in
  let clock = Obs.Clock.create () in
  let serve binary id =
    let m =
      Fleet.Machine.create ~id ~program ~core_config:Uarch.Core.default_config ~clock
        ~generation:0 binary
    in
    Fleet.Machine.serve ~ctx m ~lbr ~requests:15
  in
  let shard0 = serve gen0.Buildsys.Driver.binary 0 in
  let wpa =
    Propeller.Wpa.analyze ~ctx ~profile:(Propeller.Wpa.Lbr shard0.Fleet.Machine.profile)
      ~binary:gen0.Buildsys.Driver.binary ()
  in
  let gen1 =
    build "aggprog.fleet"
      { cg_meta with Codegen.plans = wpa.Propeller.Wpa.plans }
      { ld_meta with Linker.Link.ordering = Some wpa.Propeller.Wpa.ordering }
  in
  let shards =
    [
      shard0;
      serve gen0.Buildsys.Driver.binary 1;
      serve gen1.Buildsys.Driver.binary 2;
      serve gen1.Buildsys.Driver.binary 3;
    ]
  in
  (gen0.Buildsys.Driver.binary, gen1.Buildsys.Driver.binary, shards, ctx, program)

let make_aggregate gen0 gen1 =
  let agg = Fleet.Aggregate.create ~window:2 ~decay:0.5 ~lbr_depth:32 () in
  Fleet.Aggregate.register agg gen0;
  Fleet.Aggregate.register agg gen1;
  agg

let test_aggregation_permutation_invariant () =
  let gen0, gen1, shards, _, _ = mixed_shards () in
  let target = Support.Digesting.to_hex (Linker.Binary.image_digest gen1) in
  let signature_of order =
    let agg = make_aggregate gen0 gen1 in
    Fleet.Aggregate.push agg ~round:1 order;
    let profile, stats = Fleet.Aggregate.merged agg ~target in
    check tb "stale shards translated" true (stats.Fleet.Aggregate.stale_shards > 0);
    Fleet.Aggregate.signature profile
  in
  let reference = signature_of shards in
  let law =
    QCheck.Test.make ~count:20 ~name:"shard aggregation is permutation-invariant"
      (QCheck.make (QCheck.Gen.shuffle_l shards))
      (fun order -> String.equal (signature_of order) reference)
  in
  QCheck.Test.check_exn law

let test_permuted_aggregate_relinks_same_image () =
  let gen0, gen1, shards, ctx, program = mixed_shards () in
  let target = Support.Digesting.to_hex (Linker.Binary.image_digest gen1) in
  let relink order =
    let agg = make_aggregate gen0 gen1 in
    Fleet.Aggregate.push agg ~round:1 order;
    let profile, _ = Fleet.Aggregate.merged agg ~target in
    let wpa = Propeller.Wpa.analyze ~ctx ~profile:(Propeller.Wpa.Lbr profile) ~binary:gen1 () in
    let cg_meta, ld_meta = Propeller.Pipeline.metadata_options in
    let env = Buildsys.Driver.make_env ~ctx () in
    let built =
      Buildsys.Driver.build env ~name:"aggprog.fleet" ~program
        ~codegen_options:{ cg_meta with Codegen.plans = wpa.Propeller.Wpa.plans }
        ~link_options:{ ld_meta with Linker.Link.ordering = Some wpa.Propeller.Wpa.ordering }
    in
    Support.Digesting.to_hex (Linker.Binary.image_digest built.Buildsys.Driver.binary)
  in
  check ts "reversed shard order relinks a byte-identical image" (relink shards)
    (relink (List.rev shards))

let test_decayed_shards_fade () =
  let gen0, gen1, shards, _, _ = mixed_shards () in
  let target = Support.Digesting.to_hex (Linker.Binary.image_digest gen1) in
  let agg = Fleet.Aggregate.create ~window:4 ~decay:0.5 ~lbr_depth:32 () in
  Fleet.Aggregate.register agg gen0;
  Fleet.Aggregate.register agg gen1;
  Fleet.Aggregate.push agg ~round:1 shards;
  let p1, _ = Fleet.Aggregate.merged agg ~target in
  (* Push empty newer rounds: the old round's weight halves each time,
     so its contribution decays toward zero instead of pinning the
     aggregate forever. *)
  Fleet.Aggregate.push agg ~round:2 [];
  Fleet.Aggregate.push agg ~round:3 [];
  let p2, _ = Fleet.Aggregate.merged agg ~target in
  check tb "decayed aggregate is strictly lighter" true
    (Perfmon.Lbr.branch_total p2 < Perfmon.Lbr.branch_total p1);
  check tb "decayed aggregate still nonempty at age 2" true
    (Perfmon.Lbr.branch_total p2 > 0)

(* The index order is the per-function construction it replaced:
   each function's blocks in address order, concatenated in name order,
   then stable-sorted by address. Relink-family program 2's metadata
   image has five zero-size blocks, each sharing its address with a
   block of its own function, so the test pins that tied blocks keep
   the resolver's order (sorting ties by block id fails it). *)
let test_index_order_matches_per_function () =
  let program = relink_family_program 2 in
  let cg_meta, ld_meta = Propeller.Pipeline.metadata_options in
  let objs = Codegen.compile_program cg_meta program in
  let { Linker.Link.binary; _ } =
    Linker.Link.link ~options:ld_meta ~name:"index" ~entry:(Ir.Program.main program) objs
  in
  let res = Inspect.Resolve.create binary in
  let old =
    List.concat_map (Inspect.Resolve.blocks_of_func res) (Inspect.Resolve.funcs res)
    |> List.sort (fun (a : Inspect.Resolve.location) b -> compare a.block_addr b.block_addr)
  in
  let locs = Fleet.Aggregate.index_order res in
  check tb "the image has zero-size blocks" true
    (Array.exists (fun (l : Inspect.Resolve.location) -> l.block_size = 0) locs);
  check ti "one location per block" (Inspect.Resolve.num_blocks res) (Array.length locs);
  check tb "same locations in the same order" true (Array.to_list locs = old)

(* --- Aggregate: out-of-image shards ------------------------------- *)

(* Shards whose every address lies outside the registered image's text
   — below [text_start] or above [text_end] up to the largest packable
   address — decode to nothing: merging never raises, the merged tables
   are empty, and each branch and range pair is counted as dropped. *)
let shard_decoding_fuzz =
  let _, { Linker.Link.binary; _ } = metadata_link (call_program ()) in
  let digest = Support.Digesting.to_hex (Linker.Binary.image_digest binary) in
  let outside =
    QCheck.Gen.(
      oneof
        [
          int_bound (binary.text_start - 1);
          int_range (binary.text_end + 1) Support.Packed.max_addr;
        ])
  in
  let pairs = QCheck.Gen.(list_size (0 -- 20) (triple outside outside (1 -- 50))) in
  QCheck.Test.make ~count:200 ~name:"out-of-image shard pairs all drop"
    (QCheck.make QCheck.Gen.(triple pairs pairs pairs))
    (fun (branches, ranges, mispredicts) ->
      let profile = Perfmon.Lbr.create_profile () in
      let add tbl = List.iter (fun (src, dst, n) -> Perfmon.Lbr.add_pair tbl ~src ~dst n) in
      add profile.branches branches;
      add profile.ranges ranges;
      add profile.mispredicts mispredicts;
      let shard =
        {
          Fleet.Machine.machine = 0;
          generation = 0;
          digest;
          requests = 1;
          cycles = 0.0;
          cycles_per_request = 0.0;
          fall_through_rate = 0.0;
          mispredict_rate = 0.0;
          profile;
        }
      in
      let agg = Fleet.Aggregate.create () in
      Fleet.Aggregate.register agg binary;
      Fleet.Aggregate.push agg ~round:0 [ shard ];
      let merged, stats = Fleet.Aggregate.merged agg ~target:digest in
      Support.Itab.length merged.branches = 0
      && Support.Itab.length merged.ranges = 0
      && Support.Itab.length merged.mispredicts = 0
      && stats.translated_pairs = 0
      && stats.dropped_pairs
         = Support.Itab.length profile.branches + Support.Itab.length profile.ranges)

(* Shards whose every address lies inside the image's text but in the
   alignment padding between blocks decode to nothing as well: such an
   address is covered by no block, so every branch and range pair drops
   and is counted, and merging never raises. *)
let padding_shard_fuzz =
  let _, { Linker.Link.binary; _ } = metadata_link (call_program ()) in
  let digest = Support.Digesting.to_hex (Linker.Binary.image_digest binary) in
  (* Every text byte that lies past the end of every block before it
     and before the next block's start. *)
  let padding =
    let gaps = ref [] and hi = ref binary.text_start in
    let skip_to a =
      for k = !hi to a - 1 do
        gaps := k :: !gaps
      done
    in
    List.iter
      (fun (b : Linker.Binary.block_info) ->
        skip_to b.addr;
        hi := max !hi (b.addr + b.size))
      (Linker.Binary.blocks_in_address_order binary);
    skip_to binary.text_end;
    Array.of_list (List.rev !gaps)
  in
  assert (Array.length padding > 0);
  let pad = QCheck.Gen.oneofa padding in
  let pairs = QCheck.Gen.(list_size (1 -- 20) (triple pad pad (1 -- 50))) in
  QCheck.Test.make ~count:200 ~name:"padding shard pairs all drop"
    (QCheck.make QCheck.Gen.(triple pairs pairs pairs))
    (fun (branches, ranges, mispredicts) ->
      let profile = Perfmon.Lbr.create_profile () in
      let add tbl = List.iter (fun (src, dst, n) -> Perfmon.Lbr.add_pair tbl ~src ~dst n) in
      add profile.branches branches;
      add profile.ranges ranges;
      add profile.mispredicts mispredicts;
      let shard =
        {
          Fleet.Machine.machine = 0;
          generation = 0;
          digest;
          requests = 1;
          cycles = 0.0;
          cycles_per_request = 0.0;
          fall_through_rate = 0.0;
          mispredict_rate = 0.0;
          profile;
        }
      in
      let agg = Fleet.Aggregate.create () in
      Fleet.Aggregate.register agg binary;
      Fleet.Aggregate.push agg ~round:0 [ shard ];
      let merged, stats = Fleet.Aggregate.merged agg ~target:digest in
      List.for_all
        (fun a ->
          binary.text_start <= a && a < binary.text_end
          && Linker.Binary.find_block_by_addr binary a = None)
        (List.concat_map (fun (s, d, _) -> [ s; d ]) (branches @ ranges))
      && Support.Itab.length merged.branches = 0
      && Support.Itab.length merged.ranges = 0
      && Support.Itab.length merged.mispredicts = 0
      && stats.translated_pairs = 0
      && stats.dropped_pairs
         = Support.Itab.length profile.branches + Support.Itab.length profile.ranges)

let suite =
  [
    Alcotest.test_case "deterministic across jobs" `Quick test_deterministic_across_jobs;
    Alcotest.test_case "converges within two relinks" `Quick test_converges_within_two_relinks;
    Alcotest.test_case "sabotaged canary rolls back" `Quick test_sabotage_rolls_back;
    Alcotest.test_case "aggregation permutation-invariant" `Quick
      test_aggregation_permutation_invariant;
    Alcotest.test_case "permuted aggregate relinks same image" `Quick
      test_permuted_aggregate_relinks_same_image;
    Alcotest.test_case "decayed shards fade" `Quick test_decayed_shards_fade;
    Alcotest.test_case "index order matches per-function build" `Quick
      test_index_order_matches_per_function;
    QCheck_alcotest.to_alcotest shard_decoding_fuzz;
    QCheck_alcotest.to_alcotest padding_shard_fuzz;
  ]
