(* The generator works in three passes:
   1. skeletons: per-function CFGs (terminators, probabilities) with no
      bodies, so block frequencies can be estimated;
   2. calls: a DAG call graph (callee index > caller index) where
      frequently-executed blocks only call hot-unit functions;
   3. bodies: straight-line instruction mixes sized to the byte target,
      with the call sites spliced in. *)

type skeleton = {
  sk_name : string;
  sk_unit : int;
  sk_hot : bool;  (** Lives in a hot unit. *)
  sk_terms : Ir.Term.t array;
  sk_lps : bool array;  (** landing-pad flags *)
  sk_has_exceptions : bool;
  sk_has_inline_asm : bool;
  sk_freq : float array;  (** estimated per-invocation block frequency *)
}

let clamp lo hi v = max lo (min hi v)

(* Number of blocks for one function: geometric around the mean with an
   occasional large outlier (warehouse code has multi-hundred-block
   functions). *)
let draw_num_blocks rng mean =
  let base = 1 + Support.Rng.geometric rng (1.0 /. mean) in
  if Support.Rng.bool rng 0.02 then base * (4 + Support.Rng.int rng 8) else base

(* True taken-probability for a forward conditional: bimodal — mostly a
   cold side-exit, sometimes a coin toss, rarely inverted. *)
let draw_branch_prob rng =
  let r = Support.Rng.float rng in
  if r < 0.60 then Support.Rng.float rng *. 0.08 (* cold error path *)
  else if r < 0.85 then 0.2 +. (Support.Rng.float rng *. 0.6)
  else 0.92 +. (Support.Rng.float rng *. 0.07)

let pgo_estimate rng (spec : Spec.t) prob =
  if Support.Rng.bool rng spec.pgo_mismatch then 0.02 +. (Support.Rng.float rng *. 0.96)
  else
    clamp 0.02 0.98 (prob +. ((Support.Rng.float rng -. 0.5) *. 2.0 *. spec.pgo_noise))

let gen_terms rng (spec : Spec.t) n =
  let terms = Array.make n Ir.Term.Return in
  for i = 0 to n - 2 do
    let r = Support.Rng.float rng in
    if r < spec.loop_fraction && i > 0 then begin
      (* Loop back-edge: hot, iterates several times on average. *)
      let depth = 1 + Support.Rng.int rng (min 8 i) in
      let prob = 0.55 +. (Support.Rng.float rng *. 0.38) in
      terms.(i) <-
        Ir.Term.Branch
          {
            cond = Isa.Cond.Ne;
            taken = i - depth;
            fallthrough = i + 1;
            prob;
            pgo_prob = pgo_estimate rng spec prob;
          }
    end
    else if r < spec.loop_fraction +. spec.switch_fraction && n - i > 4 then begin
      (* Jump table over the fall-through and a few forward targets. *)
      let arity = 2 + Support.Rng.int rng 3 in
      let table =
        Array.init arity (fun k ->
            if k = 0 then i + 1 else i + 1 + Support.Rng.int rng (n - i - 1))
      in
      let raw = Array.init arity (fun _ -> 0.05 +. Support.Rng.float rng) in
      let total = Array.fold_left ( +. ) 0.0 raw in
      let probs = Array.map (fun x -> x /. total) raw in
      let pgo_raw = Array.map (fun p -> clamp 0.01 1.0 (pgo_estimate rng spec p)) probs in
      let pgo_total = Array.fold_left ( +. ) 0.0 pgo_raw in
      let pgo_probs = Array.map (fun x -> x /. pgo_total) pgo_raw in
      terms.(i) <- Ir.Term.Switch { table; probs; pgo_probs }
    end
    else begin
      let taken =
        if Support.Rng.bool rng 0.25 then n - 1 (* early exit towards the return *)
        else i + 1 + Support.Rng.int rng (n - i - 1)
      in
      let prob = draw_branch_prob rng in
      terms.(i) <-
        Ir.Term.Branch
          {
            cond = Isa.Cond.Eq;
            taken;
            fallthrough = i + 1;
            prob;
            pgo_prob = pgo_estimate rng spec prob;
          }
    end
  done;
  terms

let make_skeleton rng (spec : Spec.t) ~name ~unit_idx ~hot =
  let n = draw_num_blocks rng spec.blocks_per_func_mean in
  let terms = gen_terms rng spec n in
  let has_exceptions = Support.Rng.bool rng spec.exception_fraction && n >= 4 in
  let lps = Array.make n false in
  if has_exceptions then begin
    (* The trailing non-return blocks become landing pads: reached only
       through rare edges, i.e. cold. *)
    let num_lps = 1 + Support.Rng.int rng (min 2 (n - 2)) in
    for k = 1 to num_lps do
      lps.(n - 1 - k) <- true
    done
  end;
  let has_inline_asm = Support.Rng.bool rng spec.inline_asm_fraction in
  (* Frequencies need a Func value; bodies do not affect them. *)
  let blocks =
    Array.init n (fun i ->
        Ir.Block.make ~is_landing_pad:lps.(i) ~id:i ~body:[] ~term:terms.(i) ())
  in
  let f = Ir.Func.make ~name blocks in
  let sk_freq = Ir.Cfg.estimate_frequencies ~use_pgo:false f in
  {
    sk_name = name;
    sk_unit = unit_idx;
    sk_hot = hot;
    sk_terms = terms;
    sk_lps = lps;
    sk_has_exceptions = has_exceptions;
    sk_has_inline_asm = has_inline_asm;
    sk_freq;
  }

(* Straight-line filler summing to [target] bytes. A small fraction of
   loads are delinquent (poor data locality): post-link prefetch
   insertion targets (paper 3.5). *)
let gen_filler rng (spec : Spec.t) target =
  let rec loop remaining acc =
    if remaining <= 0 then List.rev acc
    else begin
      let r = Support.Rng.float rng in
      let size = min remaining (3 + Support.Rng.int rng 8) in
      let inst =
        if r < 0.55 then Ir.Inst.Compute size
        else if r < 0.85 then begin
          if Support.Rng.bool rng spec.delinquent_fraction then
            Ir.Inst.DelinquentLoad
              { bytes = size; miss_prob = 0.1 +. (Support.Rng.float rng *. 0.35) }
          else Ir.Inst.MemLoad size
        end
        else Ir.Inst.MemStore size
      in
      loop (remaining - size) (inst :: acc)
    end
  in
  loop target []

let program (spec : Spec.t) =
  let root = Support.Rng.create spec.seed in
  let unit_rng = Support.Rng.split root 0xC01D in
  (* Unit temperatures; unit 0 (with main) is hot. *)
  let unit_hot =
    Array.init spec.num_units (fun u ->
        u = 0 || not (Support.Rng.bool unit_rng spec.cold_unit_fraction))
  in
  (* Function skeletons, globally indexed; main is index 0. *)
  let skeletons = ref [] in
  let count = ref 0 in
  for u = 0 to spec.num_units - 1 do
    let rng = Support.Rng.split root (0x1000 + u) in
    let nf = max 1 (Support.Rng.geometric rng (1.0 /. spec.funcs_per_unit_mean)) in
    for k = 0 to nf - 1 do
      let name = if u = 0 && k = 0 then "main" else Printf.sprintf "u%d_f%d" u k in
      let sk = make_skeleton rng spec ~name ~unit_idx:u ~hot:unit_hot.(u) in
      skeletons := sk :: !skeletons;
      incr count
    done
  done;
  let sks = Array.of_list (List.rev !skeletons) in
  let n = Array.length sks in
  let hot_idx = ref [] in
  for i = n - 1 downto 0 do
    if sks.(i).sk_hot then hot_idx := i :: !hot_idx
  done;
  let hot_idx = Array.of_list !hot_idx in
  (* Call sites: calls.(i) maps block id -> callee list for function i. *)
  let calls = Array.init n (fun _ -> Hashtbl.create 4) in
  let call_rng = Support.Rng.split root 0xCA11 in
  let add_call i b callee = Hashtbl.replace (calls.(i)) b (callee :: Option.value ~default:[] (Hashtbl.find_opt (calls.(i)) b)) in
  (* Choose a hot callee with index > i (DAG). *)
  let pick_hot_callee i =
    (* binary search for first hot index > i *)
    let lo = ref 0 and hi = ref (Array.length hot_idx) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if hot_idx.(mid) <= i then lo := mid + 1 else hi := mid
    done;
    if !lo >= Array.length hot_idx then None
    else begin
      let pos = !lo + Support.Rng.int call_rng (Array.length hot_idx - !lo) in
      Some hot_idx.(pos)
    end
  in
  let pick_any_callee i =
    if i + 1 >= n then None else Some (i + 1 + Support.Rng.int call_rng (n - i - 1))
  in
  for i = 0 to n - 1 do
    let sk = sks.(i) in
    Array.iteri
      (fun b freq ->
        if Support.Rng.bool call_rng spec.call_density then begin
          let hot_site = sk.sk_hot && freq > 0.05 in
          let callee = if hot_site then pick_hot_callee i else pick_any_callee i in
          match callee with
          | Some c ->
            if Support.Rng.bool call_rng 0.2 then begin
              (* virtual call: 2-4 possible targets of the same temperature *)
              let extra_picks =
                List.init (1 + Support.Rng.int call_rng 3) (fun _ ->
                    if hot_site then pick_hot_callee i else pick_any_callee i)
                |> List.filter_map Fun.id
              in
              let targets = List.sort_uniq compare (c :: extra_picks) in
              let raw = List.map (fun t -> (t, 0.1 +. Support.Rng.float call_rng)) targets in
              let total = List.fold_left (fun a (_, w) -> a +. w) 0.0 raw in
              let callees =
                Array.of_list (List.map (fun (t, w) -> (sks.(t).sk_name, w /. total)) raw)
              in
              Hashtbl.replace (calls.(i)) b
                (`Virtual callees
                :: Option.value ~default:[] (Hashtbl.find_opt (calls.(i)) b))
            end
            else add_call i b (`Direct sks.(c).sk_name)
          | None -> ()
        end)
      sk.sk_freq
  done;
  (* Reachability: every hot function needs a hot caller with a smaller
     index so the hot region is connected from main. *)
  let has_hot_caller = Array.make n false in
  has_hot_caller.(0) <- true;
  let index_of = Hashtbl.create n in
  Array.iteri (fun i sk -> Hashtbl.replace index_of sk.sk_name i) sks;
  Array.iteri
    (fun i sk ->
      if sk.sk_hot then
        Hashtbl.iter
          (fun b cs ->
            if sk.sk_freq.(b) > 0.05 then
              List.iter
                (fun c ->
                  let mark name =
                    match Hashtbl.find_opt index_of name with
                    | Some j when sks.(j).sk_hot -> has_hot_caller.(j) <- true
                    | Some _ | None -> ()
                  in
                  match c with
                  | `Direct name -> mark name
                  | `Virtual callees -> Array.iter (fun (name, _) -> mark name) callees)
                cs)
          (calls.(i)))
    sks;
  Array.iteri
    (fun j sk ->
      if sk.sk_hot && j > 0 && not (has_hot_caller.(j)) then begin
        (* Wire j under an earlier hot function's hottest block. *)
        let rec find_caller tries =
          if tries > 50 then 0
          else begin
            let c = Support.Rng.int call_rng j in
            if sks.(c).sk_hot then c else find_caller (tries + 1)
          end
        in
        let c = find_caller 0 in
        let best = ref 0 and best_f = ref neg_infinity in
        Array.iteri
          (fun b f ->
            if f > !best_f then begin
              best := b;
              best_f := f
            end)
          sks.(c).sk_freq;
        add_call c !best (`Direct sk.sk_name)
      end)
    sks;
  (* Bodies and final assembly. *)
  let body_rng = Support.Rng.split root 0xB0D1 in
  let units = Array.make spec.num_units [] in
  Array.iteri
    (fun i sk ->
      let nb = Array.length sk.sk_terms in
      let blocks =
        Array.init nb (fun b ->
            let call_insts =
              Option.value ~default:[] (Hashtbl.find_opt (calls.(i)) b)
              |> List.rev
              |> List.map (function
                   | `Direct name -> Ir.Inst.DirectCall name
                   | `Virtual callees -> Ir.Inst.VirtualCall { callees })
            in
            let jump_table_bytes =
              match sk.sk_terms.(b) with
              | Ir.Term.Switch { table; _ } -> [ Ir.Inst.JumpTableData (8 * Array.length table) ]
              | Ir.Term.Jump _ | Ir.Term.Branch _ | Ir.Term.Return -> []
            in
            let call_bytes =
              List.fold_left (fun a c -> a + Ir.Inst.byte_size c) 0 call_insts
            in
            let target =
              max 2
                (int_of_float
                   (spec.bytes_per_block_mean *. (0.4 +. (Support.Rng.float body_rng *. 1.2)))
                - call_bytes)
            in
            let body = gen_filler body_rng spec target @ call_insts @ jump_table_bytes in
            Ir.Block.make ~is_landing_pad:sk.sk_lps.(b) ~id:b ~body ~term:sk.sk_terms.(b) ())
      in
      let attrs =
        {
          Ir.Func.exported = (i = 0 || Support.Rng.bool body_rng 0.2);
          has_exceptions = sk.sk_has_exceptions;
          has_inline_asm = sk.sk_has_inline_asm;
        }
      in
      let f = Ir.Func.make ~name:sk.sk_name ~attrs blocks in
      units.(sk.sk_unit) <- f :: units.(sk.sk_unit))
    sks;
  let cunits =
    List.init spec.num_units (fun u ->
        Ir.Cunit.make
          ~name:(Printf.sprintf "%s_u%03d" spec.name u)
          ~rodata:spec.rodata_per_unit ~data:spec.data_per_unit (List.rev units.(u)))
  in
  Ir.Program.make ~name:spec.name ~main:"main" cunits
