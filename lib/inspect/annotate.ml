type block_row = {
  bb : int;
  addr : int;
  size : int;
  section : string;
  fragment : Resolve.fragment;
  count : int;
  taken_out : int;
  fallthrough_out : int;
  mispredicted : int;
}

type func_report = {
  fname : string;
  samples : int;
  code_bytes : int;
  cold_bytes : int;
  rows : block_row list;
}

type t = {
  binary_name : string;
  num_samples : int;
  num_records : int;
  total_mispredicts : int;
  functions : func_report list;
}

let mispredict_rate r =
  if r.taken_out = 0 then 0.0 else float_of_int r.mispredicted /. float_of_int r.taken_out

let bump tbl key n =
  match Hashtbl.find_opt tbl key with
  | Some r -> r := !r + n
  | None -> Hashtbl.replace tbl key (ref n)

let get tbl key = match Hashtbl.find_opt tbl key with Some r -> !r | None -> 0

(* Sequential-range walk over the resolver's address-ordered flat
   block index: a range [lo, hi) executed the blocks it covers; each
   adjacent same-function pair inside it is one fall-through exit
   (mirrors Dcfg's attribution). The range starts are resolved as one
   batch. *)
let fallthrough_exits (resolver : Resolve.t) (profile : Perfmon.Lbr.profile) =
  let n = Resolve.num_blocks resolver in
  let items = Support.Itab.sorted_items profile.Perfmon.Lbr.ranges in
  let starts = Array.map (fun (key, _) -> Support.Packed.src key) items in
  let start_idx = Resolve.resolve_batch resolver starts in
  let ft : (string * int, int ref) Hashtbl.t = Hashtbl.create 1024 in
  Array.iteri
    (fun j (key, cnt) ->
      let range_hi = Support.Packed.dst key in
      let i0 = start_idx.(j) in
      if i0 >= 0 then begin
        let rec walk i =
          if i < n then begin
            let b = Resolve.block_at resolver i in
            if b.Linker.Binary.addr < range_hi then begin
              (if i + 1 < n then begin
                 let nxt = Resolve.block_at resolver (i + 1) in
                 if
                   nxt.Linker.Binary.addr = b.addr + b.size
                   && String.equal nxt.func b.func
                   && nxt.addr < range_hi
                 then bump ft (b.func, b.block) cnt
               end);
              walk (i + 1)
            end
          end
        in
        walk i0
      end)
    items;
  ft

let analyze ~(binary : Linker.Binary.t) ~(profile : Perfmon.Lbr.profile) =
  let resolver = Resolve.create binary in
  let dcfg = Propeller.Dcfg.build_of_blocks ~profile ~binary in
  (* Taken exits and mispredicts, attributed to the source block: the
     branch retires at src (its end address), so probe src - 1. All
     record sources resolve as one batch against the flat block index. *)
  let taken : (string * int, int ref) Hashtbl.t = Hashtbl.create 1024 in
  let mis : (string * int, int ref) Hashtbl.t = Hashtbl.create 1024 in
  let items = Support.Itab.sorted_items profile.Perfmon.Lbr.branches in
  let srcs = Array.map (fun (key, _) -> Support.Packed.src key - 1) items in
  let idxs = Resolve.resolve_batch resolver srcs in
  Array.iteri
    (fun j (key, cnt) ->
      if idxs.(j) >= 0 then begin
        let b = Resolve.block_at resolver idxs.(j) in
        bump taken (b.Linker.Binary.func, b.block) cnt;
        let m =
          Perfmon.Lbr.mispredict_count profile ~src:(Support.Packed.src key)
            ~dst:(Support.Packed.dst key)
        in
        if m > 0 then bump mis (b.func, b.block) m
      end)
    items;
  let ft = fallthrough_exits resolver profile in
  let func_report (d : Propeller.Dcfg.dfunc) =
    let fname = d.name in
    (* Sample counts by block id; the function's ranks are bb-ascending. *)
    let counts = Array.make ((Propeller.Dcfg.block dcfg (d.last - 1)).bb + 1) 0 in
    for r = d.first to d.last - 1 do
      counts.((Propeller.Dcfg.block dcfg r).bb) <- Propeller.Dcfg.count dcfg r
    done;
    let rows =
      List.map
        (fun (l : Resolve.location) ->
          let count = if l.block < Array.length counts then counts.(l.block) else 0 in
          {
            bb = l.block;
            addr = l.block_addr;
            size = l.block_size;
            section = l.section;
            fragment = l.fragment;
            count;
            taken_out = get taken (fname, l.block);
            fallthrough_out = get ft (fname, l.block);
            mispredicted = get mis (fname, l.block);
          })
        (Resolve.blocks_of_func resolver fname)
    in
    let code_bytes, cold_bytes =
      List.fold_left
        (fun (code, cold) r ->
          (code + r.size, if r.fragment = Resolve.Cold then cold + r.size else cold))
        (0, 0) rows
    in
    { fname; samples = d.samples; code_bytes; cold_bytes; rows }
  in
  let functions =
    Array.to_list (Array.map func_report dcfg.funcs)
    |> List.sort (fun a b ->
           match compare b.samples a.samples with
           | 0 -> String.compare a.fname b.fname
           | c -> c)
  in
  {
    binary_name = binary.Linker.Binary.name;
    num_samples = profile.Perfmon.Lbr.num_samples;
    num_records = profile.Perfmon.Lbr.num_records;
    total_mispredicts = Perfmon.Lbr.mispredict_total profile;
    functions;
  }

let select ?func t =
  match func with
  | None -> t.functions
  | Some f -> List.filter (fun fr -> String.equal fr.fname f) t.functions

let to_text ?(top = 10) ?func t =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "annotate %s: %d samples, %d records, %d mispredicted\n\n" t.binary_name
    t.num_samples t.num_records t.total_mispredicts;
  let selected = select ?func t in
  let shown = if func = None then List.filteri (fun i _ -> i < top) selected else selected in
  List.iter
    (fun fr ->
      Printf.bprintf buf "%s  (%d samples, %d blocks, %s bytes%s)\n" fr.fname fr.samples
        (List.length fr.rows)
        (Render.bytes_exact fr.code_bytes)
        (if fr.cold_bytes > 0 then Printf.sprintf ", %s cold" (Render.bytes_exact fr.cold_bytes)
         else "");
      let hottest =
        List.fold_left (fun acc r -> max acc r.count) 0 fr.rows |> max 1 |> float_of_int
      in
      let rows =
        List.map
          (fun r ->
            [
              Printf.sprintf "  %s" (Render.addr_hex r.addr);
              string_of_int r.bb;
              (match r.fragment with
              | Resolve.Primary -> ""
              | Resolve.Cold -> "cold"
              | Resolve.Cluster n -> Printf.sprintf "c%d" n);
              string_of_int r.size;
              string_of_int r.count;
              string_of_int r.taken_out;
              string_of_int r.fallthrough_out;
              (if r.taken_out = 0 then "-" else Render.pct (mispredict_rate r));
              Render.bar ~width:16 (float_of_int r.count /. hottest);
            ])
          fr.rows
      in
      Buffer.add_string buf
        (Render.table
           ~header:
             [ "  addr"; "bb"; "frag"; "size"; "count"; "taken"; "fallthru"; "mispred"; "heat" ]
           rows);
      Buffer.add_char buf '\n')
    shown;
  (if func <> None && selected = [] then
     Printf.bprintf buf "function %s: no samples attributed\n" (Option.get func));
  Buffer.contents buf

let row_json r =
  Obs.Json.Obj
    [
      ("bb", Obs.Json.Int r.bb);
      ("addr", Obs.Json.Int r.addr);
      ("size", Obs.Json.Int r.size);
      ("section", Obs.Json.String r.section);
      ("fragment", Obs.Json.String (Resolve.fragment_to_string r.fragment));
      ("count", Obs.Json.Int r.count);
      ("taken", Obs.Json.Int r.taken_out);
      ("fallthrough", Obs.Json.Int r.fallthrough_out);
      ("mispredicted", Obs.Json.Int r.mispredicted);
      ("mispredict_rate", Obs.Json.Float (mispredict_rate r));
    ]

let to_json ?func t =
  Obs.Json.Obj
    [
      ("tool", Obs.Json.String "propeller_inspect");
      ("view", Obs.Json.String "annotate");
      ("binary", Obs.Json.String t.binary_name);
      ("num_samples", Obs.Json.Int t.num_samples);
      ("num_records", Obs.Json.Int t.num_records);
      ("total_mispredicts", Obs.Json.Int t.total_mispredicts);
      ( "functions",
        Obs.Json.List
          (List.map
             (fun fr ->
               Obs.Json.Obj
                 [
                   ("name", Obs.Json.String fr.fname);
                   ("samples", Obs.Json.Int fr.samples);
                   ("code_bytes", Obs.Json.Int fr.code_bytes);
                   ("cold_bytes", Obs.Json.Int fr.cold_bytes);
                   ("blocks", Obs.Json.List (List.map row_json fr.rows));
                 ])
             (select ?func t)) );
    ]
