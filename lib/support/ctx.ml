type t = {
  recorder : Obs.Recorder.t;
  pool : Pool.t;
  faults : Faultsim.Plan.t option;
}

let create ~recorder ~pool ?faults () = { recorder; pool; faults }

let faults_active t =
  match t.faults with Some p -> Faultsim.Plan.is_active p | None -> false
