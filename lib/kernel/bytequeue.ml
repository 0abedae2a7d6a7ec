type t = {
  chunks : Bytes.t Queue.t;
  mutable head_ofs : int; (* consumed prefix of the front chunk *)
  mutable len : int;
  cap : int;
}

let create ?(capacity = 1 lsl 20) () =
  { chunks = Queue.create (); head_ofs = 0; len = 0; cap = capacity }

let length q = q.len
let is_empty q = q.len = 0
let space q = q.cap - q.len

let write q b =
  let n = min (Bytes.length b) (space q) in
  if n > 0 then begin
    Queue.push (Bytes.sub b 0 n) q.chunks;
    q.len <- q.len + n
  end;
  n

let take q n ~remove =
  let n = min n q.len in
  let out = Bytes.create n in
  if remove then begin
    let filled = ref 0 in
    while !filled < n do
      let head = Queue.peek q.chunks in
      let avail = Bytes.length head - q.head_ofs in
      let want = min avail (n - !filled) in
      Bytes.blit head q.head_ofs out !filled want;
      filled := !filled + want;
      if want = avail then begin
        ignore (Queue.pop q.chunks);
        q.head_ofs <- 0
      end
      else q.head_ofs <- q.head_ofs + want
    done;
    q.len <- q.len - n;
    out
  end
  else begin
    (* Non-destructive scan. *)
    let filled = ref 0 in
    let ofs = ref q.head_ofs in
    let iter = Queue.copy q.chunks in
    while !filled < n do
      let head = Queue.pop iter in
      let avail = Bytes.length head - !ofs in
      let want = min avail (n - !filled) in
      Bytes.blit head !ofs out !filled want;
      filled := !filled + want;
      ofs := 0
    done;
    out
  end

let read q n = take q n ~remove:true
let peek q n = take q n ~remove:false

