(* Only callees of at most this many blocks are inlined. *)
let max_callee_blocks = 4

(* Growth budget: call sites inlined per caller. *)
let max_inlines_per_func = 4

(* Minimum PGO-estimated block frequency of an inlined call site. *)
let hot_site_freq = 0.8

(* Extra uniform noise on the PGO estimates of cloned blocks. *)
let dilution_noise = 0.2

(* Seeds each caller's noise stream, with the caller's name. *)
let seed = 0x7417

let clamp lo hi v = max lo (min hi v)

(* Extra estimation noise on a cloned block's PGO probabilities: the
   training profile attributed this code to the out-of-line callee, not
   to this inlined context. *)
let dilute rng (t : Ir.Term.t) =
  let wobble p =
    clamp 0.02 0.98 (p +. ((Support.Rng.float rng -. 0.5) *. 2.0 *. dilution_noise))
  in
  match t with
  | Ir.Term.Branch b -> Ir.Term.Branch { b with pgo_prob = wobble b.pgo_prob }
  | Ir.Term.Switch s ->
    let raw = Array.map wobble s.pgo_probs in
    let total = Array.fold_left ( +. ) 0.0 raw in
    Ir.Term.Switch { s with pgo_probs = Array.map (fun x -> x /. total) raw }
  | Ir.Term.Jump _ | Ir.Term.Return -> t

let eligible_callee ~caller (callee : Ir.Func.t) =
  (not (String.equal callee.name caller))
  && Ir.Func.num_blocks callee <= max_callee_blocks
  && (not callee.attrs.has_inline_asm)

(* Find the first hot direct call site: (block id, index of the call in
   the body, callee). *)
let find_site ~program (f : Ir.Func.t) freqs =
  let found = ref None in
  Array.iter
    (fun (b : Ir.Block.t) ->
      if !found = None && freqs.(b.id) >= hot_site_freq then
        List.iteri
          (fun i (inst : Ir.Inst.t) ->
            if !found = None then
              match inst with
              | Ir.Inst.DirectCall g -> (
                match Ir.Program.find_func program g with
                | Some callee when eligible_callee ~caller:f.name callee ->
                  found := Some (b.id, i, callee)
                | Some _ | None -> ())
              | Ir.Inst.Compute _ | Ir.Inst.MemLoad _ | Ir.Inst.DelinquentLoad _
              | Ir.Inst.MemStore _ | Ir.Inst.VirtualCall _ | Ir.Inst.JumpTableData _ -> ())
          b.body)
    f.blocks;
  !found

(* Splice [callee] into [f] at call site (block [bid], body index
   [site]). Block ids: originals keep theirs; the callee's blocks get
   [n .. n+k-1]; the tail (rest of the split block) gets [n+k]. *)
let splice rng (f : Ir.Func.t) ~bid ~site (callee : Ir.Func.t) =
  let n = Ir.Func.num_blocks f in
  let k = Ir.Func.num_blocks callee in
  let tail_id = n + k in
  let b = Ir.Func.block f bid in
  let rec split i acc = function
    | [] -> invalid_arg "Inline.splice: site out of range"
    | inst :: rest -> if i = site then (List.rev acc, rest) else split (i + 1) (inst :: acc) rest
  in
  let before, after = split 0 [] b.body in
  let head =
    Ir.Block.make ~is_landing_pad:b.is_landing_pad ~id:bid ~body:before ~term:(Ir.Term.Jump n) ()
  in
  let tail = Ir.Block.make ~id:tail_id ~body:after ~term:b.term () in
  let cloned =
    Array.map
      (fun (cb : Ir.Block.t) ->
        let term =
          match cb.term with
          | Ir.Term.Return -> Ir.Term.Jump tail_id
          | t -> dilute rng (Ir.Term.map_blocks (fun x -> x + n) t)
        in
        Ir.Block.make ~is_landing_pad:cb.is_landing_pad ~id:(cb.id + n) ~body:cb.body ~term ())
      callee.blocks
  in
  let blocks = Array.concat [ f.blocks; cloned; [| tail |] ] in
  blocks.(bid) <- head;
  let attrs =
    { f.attrs with Ir.Func.has_exceptions = f.attrs.has_exceptions || callee.attrs.has_exceptions }
  in
  Ir.Func.make ~name:f.name ~attrs blocks

let func ~program (f : Ir.Func.t) =
  let rng = Support.Rng.split (Support.Rng.of_string f.name) seed in
  let rec go f budget =
    if budget = 0 then f
    else begin
      let freqs = Ir.Cfg.estimate_frequencies ~use_pgo:true f in
      match find_site ~program f freqs with
      | None -> f
      | Some (bid, site, callee) -> go (splice rng f ~bid ~site callee) (budget - 1)
    end
  in
  go f max_inlines_per_func

let program p =
  let units =
    List.map
      (fun (u : Ir.Cunit.t) ->
        let funcs = List.map (func ~program:p) u.funcs in
        Ir.Cunit.make ~name:u.name ~rodata:u.rodata ~data:u.data funcs)
      (Ir.Program.units p)
  in
  Ir.Program.make ~name:(Ir.Program.name p) ~main:(Ir.Program.main p) units
