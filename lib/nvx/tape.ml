module Event = Varan_ringbuf.Event

(* The lifecycle recorder's retained stream: every event the leader
   publishes on a tuple is also appended here, flattened so it stays
   readable after the ring slot is overwritten and the shared-memory
   payload freed. A respawned follower replays entries [from, splice)
   and then switches to the live ring at sequence [splice].

   Entries are the flattened stream events themselves ({!Event.flatten}):
   they keep the original Lamport stamp, tid and descriptor grant, so the
   ordinary follower-replay path consumes them unchanged and the rejoined
   variant's descriptor tables and clocks come out identical to a
   follower that never left.

   For a million-event stream a flat entry array is the recorder's space
   problem, so the tape is chunked: entries land in a small open segment
   and, once it fills, the segment is sealed — serialized to a compact
   byte image and run-length packed (PackBits). Sealed segments below the
   retention floor (the oldest live checkpoint, see {!Checkpoint}) are
   retired wholesale, which keeps resident bytes bounded while absolute
   indices stay stable: entry [i] is entry [i] forever, and reads below
   {!base} raise {!Truncated} instead of silently shifting. *)

exception Truncated of { requested : int; base : int }

let () =
  Printexc.register_printer (function
    | Truncated { requested; base } ->
      Some
        (Printf.sprintf
           "Varan_nvx.Tape.Truncated(requested=%d, oldest retained=%d)"
           requested base)
    | _ -> None)

(* A sealed, immutable chunk of [seg_entries] consecutive entries.
   Grants are opaque runtime handles (shared descriptor objects) and
   cannot be serialized; the sparse side array re-attaches them on
   decode. *)
type seg = {
  s_packed : Bytes.t; (* PackBits image of the serialized entries *)
  s_raw_len : int; (* serialized length before packing *)
  s_grants : (int * Obj.t) array; (* (index within segment, grant) *)
}

type t = {
  seg_entries : int;
  sealed : (int, seg) Hashtbl.t; (* segment number -> sealed image *)
  (* The one mutable segment, being filled; allocated by the first
     append, and overwritten in place after each seal. *)
  mutable open_buf : Event.t array;
  mutable open_first : int; (* absolute index of open_buf.(0) *)
  mutable open_len : int;
  mutable open_bytes : int; (* raw-size estimate of the open segment *)
  mutable base : int; (* oldest retained absolute index *)
  mutable total : int; (* next index to append = events ever seen *)
  (* Decode cache: sequential replay touches one sealed segment many
     times in a row (stream_peek re-reads the head index), so we keep
     the last decoded segment around. *)
  mutable cache_segno : int;
  mutable cache_entries : Event.t array;
  (* stats *)
  mutable c_sealed : int;
  mutable c_retired : int;
  mutable c_packed_bytes : int; (* resident compressed bytes *)
  mutable c_raw_bytes : int; (* raw bytes of currently resident seals *)
}

type stats = {
  segments_sealed : int;
  segments_retired : int;
  resident_bytes : int;
  packed_bytes : int;
  raw_bytes : int;
}

let default_segment_entries = 256

let create ?(segment_entries = default_segment_entries) () =
  if segment_entries < 1 then invalid_arg "Tape.create: segment_entries";
  {
    seg_entries = segment_entries;
    sealed = Hashtbl.create 32;
    open_buf = [||];
    open_first = 0;
    open_len = 0;
    open_bytes = 0;
    base = 0;
    total = 0;
    cache_segno = -1;
    cache_entries = [||];
    c_sealed = 0;
    c_retired = 0;
    c_packed_bytes = 0;
    c_raw_bytes = 0;
  }

let length t = t.total
let base t = t.base

(* ------------------------------------------------------------------ *)
(* Event byte codec: sealed segments and the record/replay log          *)
(*   u8 kind | u8 tid | u8 nargs | i32 sysno | i32 clock | i64 ret     *)
(*   | i64 args[nargs] | i32 outlen (-1 = no result buffer) | bytes    *)
(* ------------------------------------------------------------------ *)

let raw_size (e : Event.t) =
  3 + 4 + 4 + 8
  + (8 * Array.length e.Event.args)
  + 4
  + (match e.Event.inline_out with None -> 0 | Some b -> Bytes.length b)

let encode_header buf (e : Event.t) ~outlen =
  Buffer.add_uint8 buf
    (match e.Event.kind with
    | Event.Ev_syscall -> 0
    | Event.Ev_signal -> 1
    | Event.Ev_fork -> 2
    | Event.Ev_exit -> 3);
  Buffer.add_uint8 buf (e.Event.tid land 0xFF);
  Buffer.add_uint8 buf (Array.length e.Event.args);
  Buffer.add_int32_le buf (Int32.of_int e.Event.sysno);
  Buffer.add_int32_le buf (Int32.of_int e.Event.clock);
  Buffer.add_int64_le buf (Int64.of_int e.Event.ret);
  Array.iter (fun a -> Buffer.add_int64_le buf (Int64.of_int a)) e.Event.args;
  Buffer.add_int32_le buf (Int32.of_int outlen)

let encode buf (e : Event.t) =
  match e.Event.inline_out with
  | None -> encode_header buf e ~outlen:(-1)
  | Some b ->
    encode_header buf e ~outlen:(Bytes.length b);
    Buffer.add_bytes buf b

(* A record cut off mid-header or mid-payload, or carrying an impossible
   kind or length. *)
exception Short

let decode data pos =
  let len = Bytes.length data in
  let p = ref pos in
  let need n = if !p + n > len then raise Short in
  let u8 () =
    need 1;
    let v = Bytes.get_uint8 data !p in
    incr p;
    v
  in
  let i32 () =
    need 4;
    let v = Int32.to_int (Bytes.get_int32_le data !p) in
    p := !p + 4;
    v
  in
  let i64 () =
    need 8;
    let v = Int64.to_int (Bytes.get_int64_le data !p) in
    p := !p + 8;
    v
  in
  try
    let kind =
      match u8 () with
      | 0 -> Event.Ev_syscall
      | 1 -> Event.Ev_signal
      | 2 -> Event.Ev_fork
      | 3 -> Event.Ev_exit
      | _ -> raise Short
    in
    let tid = u8 () in
    let nargs = u8 () in
    let sysno = i32 () in
    let clock = i32 () in
    let ret = i64 () in
    (* An explicit loop: the reads must land in stream order. *)
    let args = Array.make nargs 0 in
    for i = 0 to nargs - 1 do
      args.(i) <- i64 ()
    done;
    let outlen = i32 () in
    let inline_out =
      if outlen = -1 then None
      else if outlen < -1 then raise Short
      else begin
        need outlen;
        let b = Bytes.sub data !p outlen in
        p := !p + outlen;
        Some b
      end
    in
    Some
      ( {
          Event.kind;
          sysno;
          tid;
          args;
          ret;
          clock;
          payload = None;
          payload_len = 0;
          inline_out;
          grant = None;
        },
        !p )
  with Short -> None

(* ------------------------------------------------------------------ *)
(* PackBits run-length coding                                          *)
(*   control byte c in 0..127: copy the next c+1 literal bytes         *)
(*   control byte c in 129..255: repeat the next byte 257-c times      *)
(* Worst case adds one byte per 128 of input; serialized events are    *)
(* full of zero bytes (little-endian small ints), so runs are common.  *)
(* ------------------------------------------------------------------ *)

let pack src =
  let n = Bytes.length src in
  let out = Buffer.create (max 16 (n / 2)) in
  let i = ref 0 in
  while !i < n do
    let c = Bytes.get src !i in
    let run = ref 1 in
    while !i + !run < n && !run < 128 && Bytes.get src (!i + !run) = c do
      incr run
    done;
    if !run >= 3 then begin
      Buffer.add_uint8 out (257 - !run);
      Buffer.add_char out c;
      i := !i + !run
    end
    else begin
      (* Literal stretch: extend until the next run of >= 3 equal bytes
         or the 128-byte control limit. *)
      let start = !i in
      let stop = ref (!i + !run) in
      let continue = ref true in
      while !continue && !stop < n && !stop - start < 128 do
        let c' = Bytes.get src !stop in
        let r = ref 1 in
        while !stop + !r < n && !r < 3 && Bytes.get src (!stop + !r) = c' do
          incr r
        done;
        if !r >= 3 then continue := false
        else stop := min (!stop + !r) (start + 128)
      done;
      let len = !stop - start in
      Buffer.add_uint8 out (len - 1);
      Buffer.add_subbytes out src start len;
      i := start + len
    end
  done;
  Buffer.to_bytes out

let unpack ~raw_len src =
  let out = Bytes.create raw_len in
  let n = Bytes.length src in
  let i = ref 0 and o = ref 0 in
  while !i < n do
    let c = Char.code (Bytes.get src !i) in
    incr i;
    if c < 128 then begin
      let len = c + 1 in
      Bytes.blit src !i out !o len;
      i := !i + len;
      o := !o + len
    end
    else begin
      let len = 257 - c in
      Bytes.fill out !o len (Bytes.get src !i);
      incr i;
      o := !o + len
    end
  done;
  if !o <> raw_len then invalid_arg "Tape.unpack: corrupt segment";
  out

(* ------------------------------------------------------------------ *)
(* Sealing and decoding                                                *)
(* ------------------------------------------------------------------ *)

let seal t =
  let buf = Buffer.create (t.open_bytes + 64) in
  let grants = ref [] in
  for i = 0 to t.seg_entries - 1 do
    let e = t.open_buf.(i) in
    (match e.Event.grant with
    | Some g -> grants := (i, g) :: !grants
    | None -> ());
    encode buf e
  done;
  let raw = Buffer.to_bytes buf in
  let packed = pack raw in
  let seg =
    {
      s_packed = packed;
      s_raw_len = Bytes.length raw;
      s_grants = Array.of_list (List.rev !grants);
    }
  in
  let segno = t.open_first / t.seg_entries in
  Hashtbl.replace t.sealed segno seg;
  t.c_sealed <- t.c_sealed + 1;
  t.c_packed_bytes <- t.c_packed_bytes + Bytes.length packed;
  t.c_raw_bytes <- t.c_raw_bytes + seg.s_raw_len;
  t.open_first <- t.open_first + t.seg_entries;
  t.open_len <- 0;
  t.open_bytes <- 0

let decode_segment t segno =
  if t.cache_segno = segno then t.cache_entries
  else begin
    let seg =
      match Hashtbl.find_opt t.sealed segno with
      | Some s -> s
      | None ->
        raise (Truncated { requested = segno * t.seg_entries; base = t.base })
    in
    let raw = unpack ~raw_len:seg.s_raw_len seg.s_packed in
    let pos = ref 0 in
    let entries =
      Array.init t.seg_entries (fun _ ->
          match decode raw !pos with
          | Some (e, p) ->
            pos := p;
            e
          | None -> invalid_arg "Tape: corrupt segment")
    in
    Array.iter
      (fun (i, g) -> entries.(i) <- { (entries.(i)) with Event.grant = Some g })
      seg.s_grants;
    t.cache_segno <- segno;
    t.cache_entries <- entries;
    entries
  end

(* ------------------------------------------------------------------ *)
(* Public operations                                                   *)
(* ------------------------------------------------------------------ *)

(* Flatten at capture time: [out] is the leader's result buffer, handed
   over before any pool chunk can be recycled. An event that is already
   flat (no pooled payload, [out] riding inline) is kept as it is. Pure
   (no engine calls) — runs between the leader's slot claim and its slot
   write. *)
let append t (e : Event.t) ~out =
  if t.open_len = t.seg_entries then seal t;
  let e =
    if Event.fits_inline e && e.payload_len = 0 && e.inline_out == out then e
    else Event.flatten e ~out
  in
  if Array.length t.open_buf = 0 then t.open_buf <- Array.make t.seg_entries e;
  t.open_buf.(t.open_len) <- e;
  t.open_len <- t.open_len + 1;
  t.open_bytes <- t.open_bytes + raw_size e;
  t.total <- t.total + 1

let get t i =
  if i < 0 || i >= t.total then invalid_arg "Tape.get: out of range";
  if i < t.base then raise (Truncated { requested = i; base = t.base });
  if i >= t.open_first then t.open_buf.(i - t.open_first)
  else (decode_segment t (i / t.seg_entries)).(i mod t.seg_entries)

let iter f t =
  for i = t.base to t.total - 1 do
    f (get t i)
  done

(* Drop whole sealed segments strictly below [keep_from]. Absolute
   indices are preserved: after retiring, [base] is the first index of
   the oldest surviving segment, and any read below it raises
   {!Truncated}. Never touches the open segment. *)
let retire t ~keep_from =
  let keep_from = max 0 (min keep_from t.open_first) in
  let keep_seg = keep_from / t.seg_entries in
  let first_seg = t.base / t.seg_entries in
  for segno = first_seg to keep_seg - 1 do
    match Hashtbl.find_opt t.sealed segno with
    | None -> ()
    | Some seg ->
      Hashtbl.remove t.sealed segno;
      t.c_retired <- t.c_retired + 1;
      t.c_packed_bytes <- t.c_packed_bytes - Bytes.length seg.s_packed;
      t.c_raw_bytes <- t.c_raw_bytes - seg.s_raw_len;
      if t.cache_segno = segno then begin
        t.cache_segno <- -1;
        t.cache_entries <- [||]
      end
  done;
  if keep_seg * t.seg_entries > t.base then t.base <- keep_seg * t.seg_entries

let resident_bytes t = t.c_packed_bytes + t.open_bytes

let stats t =
  {
    segments_sealed = t.c_sealed;
    segments_retired = t.c_retired;
    resident_bytes = resident_bytes t;
    packed_bytes = t.c_packed_bytes;
    raw_bytes = t.c_raw_bytes;
  }
