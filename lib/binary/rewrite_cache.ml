module Stats = Varan_util.Stats

(* Bump whenever Rewriter's output format changes: stale entries from an
   older rewriter must never be served, and mixing versions into the
   content hash is cheaper than a flush protocol. *)
let version = "rw2"

type entry = { e_key : string; e_reloc : Rewriter.relocatable }

type t = {
  capacity : int;
  table : (string, entry) Hashtbl.t;
  order : string Queue.t; (* insertion order, for FIFO eviction *)
  mutable hits : int;
  mutable misses : int;
  mutable rebases : int;
  mutable evictions : int;
  mutable cached_bytes : int;
}

(* Process-wide tallies so sweeps and the torture report can read the
   cache's behaviour without threading every session's handle around. *)
let g_hits = Stats.counter "rewrite_cache.hits"
let g_misses = Stats.counter "rewrite_cache.misses"
let g_rebases = Stats.counter "rewrite_cache.rebases"

let create ?(capacity = 64) () =
  if capacity < 1 then invalid_arg "Rewrite_cache.create: capacity < 1";
  {
    capacity;
    table = Hashtbl.create 16;
    order = Queue.create ();
    hits = 0;
    misses = 0;
    rebases = 0;
    evictions = 0;
    cached_bytes = 0;
  }

let image_key code = version ^ ":" ^ Digest.to_hex (Digest.bytes code)

let evict_one t =
  match Queue.take_opt t.order with
  | None -> ()
  | Some key -> (
    match Hashtbl.find_opt t.table key with
    | None -> ()
    | Some en ->
      Hashtbl.remove t.table key;
      t.cached_bytes <- t.cached_bytes - Bytes.length en.e_reloc.Rewriter.rt_code;
      t.evictions <- t.evictions + 1)

let prepare t ?(first_site_id = 0) code =
  let key = image_key code in
  match Hashtbl.find_opt t.table key with
  | Some en ->
    t.hits <- t.hits + 1;
    Stats.incr_counter g_hits;
    t.rebases <- t.rebases + 1;
    Stats.incr_counter g_rebases;
    Rewriter.rebase en.e_reloc ~first_site_id
  | None ->
    t.misses <- t.misses + 1;
    Stats.incr_counter g_misses;
    let rt = Rewriter.rewrite_relocatable code in
    while Hashtbl.length t.table >= t.capacity do
      evict_one t
    done;
    Hashtbl.replace t.table key { e_key = key; e_reloc = rt };
    Queue.push key t.order;
    t.cached_bytes <- t.cached_bytes + Bytes.length rt.Rewriter.rt_code;
    Rewriter.rebase rt ~first_site_id

let prepare_segment t ?first_site_id seg =
  let out = ref None in
  Image.with_writable seg (fun data ->
      let r = prepare t ?first_site_id data in
      out := Some r;
      r.Rewriter.code);
  match !out with
  | Some r -> (r.Rewriter.sites, r.Rewriter.stats)
  | None -> assert false

type stats = {
  hits : int;
  misses : int;
  rebases : int;
  evictions : int;
  entries : int;
  cached_bytes : int;
}

let stats (t : t) =
  {
    hits = t.hits;
    misses = t.misses;
    rebases = t.rebases;
    evictions = t.evictions;
    entries = Hashtbl.length t.table;
    cached_bytes = t.cached_bytes;
  }
