type t =
  | Jump of int
  | Branch of {
      cond : Isa.Cond.t;
      taken : int;
      fallthrough : int;
      prob : float;
      pgo_prob : float;
    }
  | Switch of { table : int array; probs : float array; pgo_probs : float array }
  | Return

let successors = function
  | Jump b -> [ b ]
  | Branch { taken; fallthrough; _ } -> [ taken; fallthrough ]
  | Switch { table; _ } -> Array.to_list table
  | Return -> []

let successor_probs = function
  | Jump b -> [ (b, 1.0) ]
  | Branch { taken; fallthrough; prob; _ } -> [ (taken, prob); (fallthrough, 1.0 -. prob) ]
  | Switch { table; probs; _ } -> Array.to_list (Array.map2 (fun b p -> (b, p)) table probs)
  | Return -> []

let successor_pgo_probs = function
  | Jump b -> [ (b, 1.0) ]
  | Branch { taken; fallthrough; pgo_prob; _ } ->
    [ (taken, pgo_prob); (fallthrough, 1.0 -. pgo_prob) ]
  | Switch { table; pgo_probs; _ } ->
    Array.to_list (Array.map2 (fun b p -> (b, p)) table pgo_probs)
  | Return -> []

let map_blocks f = function
  | Jump b -> Jump (f b)
  | Branch b -> Branch { b with taken = f b.taken; fallthrough = f b.fallthrough }
  | Switch s -> Switch { s with table = Array.map f s.table }
  | Return -> Return

let render b = function
  | Jump t ->
    Buffer.add_string b "jump .";
    Text.add_int b t
  | Branch { cond; taken; fallthrough; prob; _ } ->
    Buffer.add_string b "br.";
    Buffer.add_string b (Isa.Cond.to_string cond);
    Buffer.add_string b " .";
    Text.add_int b taken;
    Buffer.add_string b (Printf.sprintf " (p=%.2f) else ." prob);
    Text.add_int b fallthrough
  | Switch { table; _ } ->
    Buffer.add_string b "switch [";
    Array.iteri
      (fun i t ->
        if i > 0 then Buffer.add_string b "; ";
        Text.add_int b t)
      table;
    Buffer.add_char b ']'
  | Return -> Buffer.add_string b "ret"

let pp fmt t =
  let b = Buffer.create 32 in
  render b t;
  Format.pp_print_string fmt (Buffer.contents b)
