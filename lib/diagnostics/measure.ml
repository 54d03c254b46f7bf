let log2i v =
  let rec go v acc = if v <= 1 then acc else go (v lsr 1) (acc + 1) in
  go v 0

let core_config (spec : Progen.Spec.t) =
  {
    Uarch.Core.default_config with
    hugepages = spec.hugepages;
    page_scale_bits = log2i spec.scale;
  }

let run ?publish ~ctx ~core ~requests program binary =
  let image = Exec.Image.build program binary in
  let c = Uarch.Core.create core in
  let stats =
    Exec.Interp.run ~ctx image { Exec.Interp.default_config with requests } (Uarch.Core.consume c)
  in
  Option.iter (fun name -> Uarch.Core.publish ~ctx ~name c) publish;
  (stats, Uarch.Core.counters c)
