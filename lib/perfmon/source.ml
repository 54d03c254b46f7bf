type t = Lbr | Sampled

let to_string = function Lbr -> "lbr" | Sampled -> "sampled"

let all = [ Lbr; Sampled ]
