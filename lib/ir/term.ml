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

module D = Support.Digesting

(* The bytes [pp] prints, fed straight into a digest. *)
let feed st t =
  match t with
  | Jump t -> D.add_string st "jump ."; D.add_int st t
  | Branch { cond; taken; fallthrough; prob; _ } ->
    D.add_string st "br.";
    D.add_string st (Isa.Cond.to_string cond);
    D.add_string st " .";
    D.add_int st taken;
    D.add_string st " (p=";
    D.add_fixed2 st prob;
    D.add_string st ") else .";
    D.add_int st fallthrough
  | Switch { table; _ } ->
    D.add_string st "switch [";
    Array.iteri (fun i t -> if i > 0 then D.add_string st "; "; D.add_int st t) table;
    D.add_char st ']'
  | Return -> D.add_string st "ret"

let pp fmt = function
  | Jump t -> Format.fprintf fmt "jump .%d" t
  | Branch { cond; taken; fallthrough; prob; _ } ->
    Format.fprintf fmt "br.%s .%d (p=%.2f) else .%d" (Isa.Cond.to_string cond) taken prob
      fallthrough
  | Switch { table; _ } ->
    Format.fprintf fmt "switch [%s]"
      (String.concat "; " (List.map string_of_int (Array.to_list table)))
  | Return -> Format.pp_print_string fmt "ret"
