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

(* LPT replans the same action multiset on every build of a program:
   Phase 2 and Phase 4 schedule near-identical sets, and bench sweeps
   replay them dozens of times. Memoize the descending-cost sort on the
   action list itself (structural key); the memo is only touched from
   the build coordinator, never from pool workers. *)
let sort_memo : (action list, action list) Hashtbl.t = Hashtbl.create 64

let memo_hits = ref 0

let plan_memo_hits () = !memo_hits

let lpt_order actions =
  match Hashtbl.find_opt sort_memo actions with
  | Some sorted ->
    incr memo_hits;
    sorted
  | None ->
    let sorted =
      List.stable_sort
        (fun (a : action) (b : action) -> compare b.cpu_seconds a.cpu_seconds)
        actions
    in
    if Hashtbl.length sort_memo > 512 then Hashtbl.reset sort_memo;
    Hashtbl.replace sort_memo actions sorted;
    sorted

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
  let sorted = lpt_order actions in
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
