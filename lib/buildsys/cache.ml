type 'a entry = {
  value : 'a;
  bytes : int;
  mutable stored_digest : Support.Digesting.t option;
      (* Content digest recorded at store time; [find_verified]
         compares it with the value's digest on read. [corrupt] flips it
         to simulate bit rot in the backing store. *)
}

type 'a t = {
  entries : (Support.Digesting.t, 'a entry) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable stored : int;
}

let create () = { entries = Hashtbl.create 256; hits = 0; misses = 0; stored = 0 }

let find c key =
  match Hashtbl.find_opt c.entries key with
  | Some e ->
    c.hits <- c.hits + 1;
    Some e.value
  | None ->
    c.misses <- c.misses + 1;
    None

let add ?digest_of c key ~size v =
  let bytes = size v in
  (match Hashtbl.find_opt c.entries key with
  | Some old -> c.stored <- c.stored - old.bytes
  | None -> ());
  let stored_digest = Option.map (fun f -> f v) digest_of in
  Hashtbl.replace c.entries key { value = v; bytes; stored_digest };
  c.stored <- c.stored + bytes

(* Drop [key] without touching hit/miss counters (verification owns the
   accounting of corrupt reads). *)
let remove_entry c key (e : 'a entry) =
  Hashtbl.remove c.entries key;
  c.stored <- c.stored - e.bytes

let find_verified c key ~digest_of =
  match Hashtbl.find_opt c.entries key with
  | None ->
    c.misses <- c.misses + 1;
    `Miss
  | Some e -> (
    match e.stored_digest with
    | None ->
      (* Stored without a digest: nothing to verify against. *)
      c.hits <- c.hits + 1;
      `Hit e.value
    | Some d when Support.Digesting.equal d (digest_of e.value) ->
      c.hits <- c.hits + 1;
      `Hit e.value
    | Some _ ->
      (* Digest mismatch: the entry rotted in storage. Evict it and
         report a miss — the caller re-runs the action, exactly as a
         warehouse CAS treats a checksum failure. *)
      remove_entry c key e;
      c.misses <- c.misses + 1;
      `Corrupt)

let corrupt c key =
  match Hashtbl.find_opt c.entries key with
  | None -> false
  | Some e ->
    let flipped =
      match e.stored_digest with
      | Some d -> Support.Digesting.of_string ("rot:" ^ Support.Digesting.to_hex d)
      | None -> Support.Digesting.of_string "rot:undigested"
    in
    e.stored_digest <- Some flipped;
    true

let hits c = c.hits

let misses c = c.misses

let stored_bytes c = c.stored

let hit_rate c =
  let total = c.hits + c.misses in
  if total = 0 then 0.0 else float_of_int c.hits /. float_of_int total
