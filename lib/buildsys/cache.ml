type 'a entry = {
  value : 'a;
  bytes : int;
  mutable stamp : int;
  mutable stored_digest : Support.Digesting.t option;
      (* Content digest recorded at store time; [find_verified]
         re-digests the value on read and compares. [corrupt] flips it
         to simulate bit rot in the backing store. *)
}

type 'a t = {
  entries : (Support.Digesting.t, 'a entry) Hashtbl.t;
  capacity_bytes : int option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable stored : int;
  mutable tick : int;  (* LRU clock: bumped on every find/add *)
}

let create ?capacity_bytes () =
  (match capacity_bytes with
  | Some c when c < 0 -> invalid_arg "Cache.create: negative capacity"
  | Some _ | None -> ());
  {
    entries = Hashtbl.create 256;
    capacity_bytes;
    hits = 0;
    misses = 0;
    evictions = 0;
    stored = 0;
    tick = 0;
  }

let find c key =
  c.tick <- c.tick + 1;
  match Hashtbl.find_opt c.entries key with
  | Some e ->
    c.hits <- c.hits + 1;
    e.stamp <- c.tick;
    Some e.value
  | None ->
    c.misses <- c.misses + 1;
    None

(* Evict least-recently-used entries until the store fits. The entry
   under [keep] (the one just added) is never evicted, so a single
   oversized artifact still lands. Ties cannot happen: stamps are
   unique ticks. *)
let evict_to_fit c ~keep =
  match c.capacity_bytes with
  | None -> ()
  | Some cap ->
    while
      c.stored > cap
      &&
      let victim = ref None in
      Hashtbl.iter
        (fun k (e : 'a entry) ->
          if not (Support.Digesting.equal k keep) then
            match !victim with
            | Some (_, stamp) when stamp <= e.stamp -> ()
            | Some _ | None -> victim := Some (k, e.stamp))
        c.entries;
      match !victim with
      | None -> false
      | Some (k, _) ->
        let e = Hashtbl.find c.entries k in
        Hashtbl.remove c.entries k;
        c.stored <- c.stored - e.bytes;
        c.evictions <- c.evictions + 1;
        true
    do
      ()
    done

let add ?digest_of c key ~size v =
  c.tick <- c.tick + 1;
  let bytes = size v in
  (match Hashtbl.find_opt c.entries key with
  | Some old -> c.stored <- c.stored - old.bytes
  | None -> ());
  let stored_digest = Option.map (fun f -> f v) digest_of in
  Hashtbl.replace c.entries key { value = v; bytes; stamp = c.tick; stored_digest };
  c.stored <- c.stored + bytes;
  evict_to_fit c ~keep:key

(* Drop [key] without touching hit/miss counters (verification owns the
   accounting of corrupt reads). *)
let remove_entry c key (e : 'a entry) =
  Hashtbl.remove c.entries key;
  c.stored <- c.stored - e.bytes

let find_verified c key ~digest_of =
  c.tick <- c.tick + 1;
  match Hashtbl.find_opt c.entries key with
  | None ->
    c.misses <- c.misses + 1;
    `Miss
  | Some e -> (
    match e.stored_digest with
    | None ->
      (* Stored without a digest: nothing to verify against. *)
      c.hits <- c.hits + 1;
      e.stamp <- c.tick;
      `Hit e.value
    | Some d when Support.Digesting.equal d (digest_of e.value) ->
      c.hits <- c.hits + 1;
      e.stamp <- c.tick;
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

let evictions c = c.evictions

let stored_bytes c = c.stored

let hit_rate c =
  let total = c.hits + c.misses in
  if total = 0 then 0.0 else float_of_int c.hits /. float_of_int total
