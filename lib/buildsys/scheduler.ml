type action = { label : string; cpu_seconds : float; peak_mem_bytes : int }

type placement = { action : action; worker : int; start : float; finish : float }

type result = {
  num_actions : int;
  wall_seconds : float;
  cpu_seconds : float;
  max_action_mem : int;
  over_limit : string list;
  workers : int;
  placements : placement list;
  stragglers : int;
  speculated : int;
}

(* Effective on-worker duration of an action under a fault plan, plus a
   tag for the straggler accounting. Retries serialize on the action's
   worker: each failed attempt costs a full run plus its backoff wait.
   A straggler runs [straggle_factor] slower; once a full fault-free
   duration has elapsed without completion, a speculative copy is
   issued (the MapReduce backup-task move), so the action completes at
   [min (slowed, detection + rerun)] = [min (slowed, 2 * base)]. *)
let effective_duration plan (a : action) =
  match plan with
  | None -> (a.cpu_seconds, `Normal)
  | Some p ->
    let attempts = Faultsim.Plan.attempts_for p ~key:a.label in
    let base =
      a.cpu_seconds +. Faultsim.Plan.retry_cost p ~attempts ~cpu_seconds:a.cpu_seconds
    in
    if Faultsim.Plan.straggles p ~key:a.label then begin
      let slowed = base *. p.Faultsim.Plan.straggle_factor in
      let backup_done = 2.0 *. base in
      if backup_done < slowed then (backup_done, `Speculated) else (slowed, `Straggler)
    end
    else (base, `Normal)

let schedule ?mem_limit ?faults ~workers actions =
  if workers < 1 then invalid_arg "Scheduler.schedule: workers must be >= 1";
  let sorted =
    List.stable_sort
      (fun (a : action) (b : action) -> Float.compare b.cpu_seconds a.cpu_seconds)
      actions
  in
  let finish = Array.make workers 0.0 in
  let least_loaded () =
    let best = ref 0 in
    for w = 1 to workers - 1 do
      if finish.(w) < finish.(!best) then best := w
    done;
    !best
  in
  let stragglers = ref 0 in
  let speculated = ref 0 in
  let placements =
    List.map
      (fun (a : action) ->
        let duration, tag = effective_duration faults a in
        (match tag with
        | `Normal -> ()
        | `Straggler -> incr stragglers
        | `Speculated ->
          incr stragglers;
          incr speculated);
        let w = least_loaded () in
        let start = finish.(w) in
        finish.(w) <- start +. duration;
        { action = a; worker = w; start; finish = finish.(w) })
      sorted
  in
  let over_limit =
    match mem_limit with
    | None -> []
    | Some limit ->
      List.filter_map (fun (a : action) -> if a.peak_mem_bytes > limit then Some a.label else None) actions
  in
  {
    num_actions = List.length actions;
    wall_seconds = Array.fold_left Float.max 0.0 finish;
    cpu_seconds =
      List.fold_left (fun acc (p : placement) -> acc +. (p.finish -. p.start)) 0.0 placements;
    max_action_mem = List.fold_left (fun acc (a : action) -> max acc a.peak_mem_bytes) 0 actions;
    over_limit;
    workers;
    placements;
    stragglers = !stragglers;
    speculated = !speculated;
  }
