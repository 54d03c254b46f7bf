type t = {
  recorder : Obs.Recorder.t;
  pool : Pool.t;
  faults : Faultsim.Plan.t option;
}

let create ?recorder ?pool ?jobs ?faults () =
  let recorder = match recorder with Some r -> r | None -> Obs.Recorder.global in
  let pool =
    match (pool, jobs) with
    | Some p, _ -> p
    | None, Some j -> Pool.create ~jobs:j ()
    | None, None -> Pool.global ()
  in
  { recorder; pool; faults }

let default () = create ()

let with_recorder t recorder = { t with recorder }

let faults_active t =
  match t.faults with Some p -> Faultsim.Plan.is_active p | None -> false
