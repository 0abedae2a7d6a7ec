type perm = { r : bool; w : bool; x : bool }

exception Wx_violation of string

type segment = {
  seg_name : string;
  base : int;
  mutable data : Bytes.t;
  mutable perm : perm;
}

let rx = { r = true; w = false; x = true }
let ro = { r = true; w = false; x = false }

let check_wx name perm =
  if perm.w && perm.x then
    raise (Wx_violation (Printf.sprintf "segment %s would be W+X" name))

let make_segment ~name ~base ~perm data =
  check_wx name perm;
  { seg_name = name; base; data; perm }

let set_perm seg perm =
  check_wx seg.seg_name perm;
  seg.perm <- perm

let with_writable seg f =
  let original = seg.perm in
  set_perm seg { original with w = true; x = false };
  seg.data <- f seg.data;
  set_perm seg original

type t = { image_name : string; segments : segment list; entry : int }

let make ~name ~entry segments = { image_name = name; segments; entry }
