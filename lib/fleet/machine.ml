type shard = {
  machine : int;
  generation : int;
  digest : string;
  requests : int;
  cycles : float;
  cycles_per_request : float;
  fall_through_rate : float;
  mispredict_rate : float;
  profile : Perfmon.Lbr.profile;
}

type t = {
  id : int;
  program : Ir.Program.t;
  core_config : Uarch.Core.config;
  series : Obs.Timeseries.t;
  mutable generation : int;
  mutable binary : Linker.Binary.t;
  mutable image : Exec.Image.t;
  mutable digest : string;
}

let hex binary = Support.Digesting.to_hex (Linker.Binary.image_digest binary)

let create ~id ~program ~core_config ~clock ?window_s ?capacity ?decay ~generation binary =
  {
    id;
    program;
    core_config;
    series = Obs.Timeseries.create ?window_s ?capacity ?decay clock;
    generation;
    binary;
    image = Exec.Image.build program binary;
    digest = hex binary;
  }

let id t = t.id

let generation t = t.generation

let binary t = t.binary

let digest t = t.digest

let series t = t.series

let deploy t ~generation binary =
  t.generation <- generation;
  t.binary <- binary;
  t.image <- Exec.Image.build t.program binary;
  t.digest <- hex binary

let serve ?ctx ?(source = Perfmon.Source.Lbr)
    ?(sampler = Perfmon.Sampler.default_config) t ~lbr ~requests =
  let lbr_profile = Perfmon.Lbr.create_profile () in
  let samples = Perfmon.Sampler.create_profile () in
  (* Per-machine sampler stream: machines must not sample in lockstep
     (they serve different request mixes), so salt the jitter seed. *)
  let sampler =
    { sampler with Perfmon.Sampler.seed = sampler.Perfmon.Sampler.seed + (7919 * t.id) }
  in
  let core = Uarch.Core.create t.core_config in
  (* Direct tape drains for the hot consumers; the software sampler
     stays a closure sink behind the replay adapter. The collectors are
     independent state machines over disjoint event kinds, so draining
     them one after the other observes exactly what one shared sink would. *)
  let drain =
    match source with
    | Perfmon.Source.Lbr ->
      let c = Perfmon.Lbr.collector_state lbr lbr_profile in
      fun tape ->
        Perfmon.Lbr.consume c tape;
        Uarch.Core.consume core tape
    | Perfmon.Source.Sampled ->
      let sink = Perfmon.Sampler.collector sampler samples in
      fun tape ->
        Exec.Event.replay tape sink;
        Uarch.Core.consume core tape
  in
  let stats =
    Exec.Interp.run_tape ?ctx t.image { Exec.Interp.default_config with requests } ~drain
  in
  (* A sampled machine synthesizes locally against the binary it ran
     (the AutoFDO shape: perf.data -> profile conversion on the host,
     LBR-shaped shards upstream), so the aggregation tier's
     cross-generation re-encoding works unchanged. *)
  let profile =
    match source with
    | Perfmon.Source.Lbr -> lbr_profile
    | Perfmon.Source.Sampled ->
      Propeller.Autofdo.synthesize ~period:sampler.Perfmon.Sampler.period ~samples
        ~program:t.program ~binary:t.binary ()
  in
  let served = stats.Exec.Interp.requests_completed in
  let cycles = Uarch.Core.cycles core in
  let cycles_per_request = cycles /. float_of_int (max 1 served) in
  (* Layout quality as the hardware sees it: a good layout places the
     hot successor of a conditional next (not taken) and relaxes away
     unconditional jumps, so the not-taken share of all transfer sites
     rises with layout quality. *)
  let transfer_sites = stats.cond_branches + stats.uncond_jumps in
  let fall_through_rate =
    if transfer_sites = 0 then 0.0
    else float_of_int (stats.cond_branches - stats.cond_taken) /. float_of_int transfer_sites
  in
  let mispredict_rate =
    if profile.Perfmon.Lbr.num_records = 0 then 0.0
    else
      float_of_int (Perfmon.Lbr.mispredict_total profile)
      /. float_of_int profile.Perfmon.Lbr.num_records
  in
  Obs.Timeseries.add t.series "machine.requests" (float_of_int served);
  Obs.Timeseries.set t.series "machine.cycles_per_request" cycles_per_request;
  Obs.Timeseries.set t.series "machine.fall_through_rate" fall_through_rate;
  Obs.Timeseries.set t.series "machine.mispredict_rate" mispredict_rate;
  {
    machine = t.id;
    generation = t.generation;
    digest = t.digest;
    requests = served;
    cycles;
    cycles_per_request;
    fall_through_rate;
    mispredict_rate;
    profile;
  }
