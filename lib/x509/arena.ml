module Ts = Tangled_util.Timestamp

type bigbytes =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type bigints = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* column slots per certificate, in row-major rows: the whole row of a
   certificate lands on one or two cache lines *)
let width = 9

let col_off = 0
let col_len = 1
let col_subject = 2
let col_issuer = 3
let col_anchor = 4
let col_not_before = 5
let col_not_after = 6
let col_flags = 7
let col_key_fp = 8

let flag_expired = 1
let flag_via_intermediate = 2

type t = {
  mutable blob : bigbytes;
  mutable blob_len : int;
  mutable cols : bigints;
  mutable n : int;
}

type mark = { m_count : int; m_bytes : int }

type memory = {
  blob_bytes : int;
  column_bytes : int;
  blob_capacity : int;
  column_capacity : int;
}

let alloc_blob n = Bigarray.(Array1.create char c_layout (Stdlib.max 1 n))
let alloc_cols n = Bigarray.(Array1.create int64 c_layout (Stdlib.max width n))

let create ?(blob_capacity = 1 lsl 20) ?(capacity = 4096) () =
  {
    blob = alloc_blob blob_capacity;
    blob_len = 0;
    cols = alloc_cols (capacity * width);
    n = 0;
  }

let length t = t.n

let grow_blob t need =
  let cap = Bigarray.Array1.dim t.blob in
  if need > cap then begin
    let cap' = ref (Stdlib.max cap 1) in
    while need > !cap' do
      cap' := 2 * !cap'
    done;
    let blob = alloc_blob !cap' in
    Bigarray.Array1.blit
      (Bigarray.Array1.sub t.blob 0 t.blob_len)
      (Bigarray.Array1.sub blob 0 t.blob_len);
    t.blob <- blob
  end

let grow_cols t need =
  let cap = Bigarray.Array1.dim t.cols in
  if need > cap then begin
    let cap' = ref (Stdlib.max cap width) in
    while need > !cap' do
      cap' := 2 * !cap'
    done;
    let cols = alloc_cols !cap' in
    let used = t.n * width in
    Bigarray.Array1.blit
      (Bigarray.Array1.sub t.cols 0 used)
      (Bigarray.Array1.sub cols 0 used);
    t.cols <- cols
  end

let check t h =
  if h < 0 || h >= t.n then
    invalid_arg (Printf.sprintf "Arena: handle %d out of range (have %d)" h t.n)

let get t h slot = Int64.to_int (Bigarray.Array1.unsafe_get t.cols ((h * width) + slot))

let append t ~der ~subject_id ~issuer_id ~anchor_id ~not_before ~not_after
    ~flags ~key_fp =
  let len = String.length der in
  grow_blob t (t.blob_len + len);
  grow_cols t ((t.n + 1) * width);
  let off = t.blob_len in
  for i = 0 to len - 1 do
    Bigarray.Array1.unsafe_set t.blob (off + i) (String.unsafe_get der i)
  done;
  t.blob_len <- off + len;
  let base = t.n * width in
  let set slot v = Bigarray.Array1.unsafe_set t.cols (base + slot) (Int64.of_int v) in
  set col_off off;
  set col_len len;
  set col_subject subject_id;
  set col_issuer issuer_id;
  set col_anchor anchor_id;
  set col_not_before not_before;
  set col_not_after not_after;
  set col_flags flags;
  Bigarray.Array1.unsafe_set t.cols (base + col_key_fp) key_fp;
  let h = t.n in
  t.n <- h + 1;
  h

let der_length t h = check t h; get t h col_len
let subject_id t h = check t h; get t h col_subject
let issuer_id t h = check t h; get t h col_issuer
let anchor_id t h = check t h; get t h col_anchor
let not_before t h = check t h; get t h col_not_before
let not_after t h = check t h; get t h col_not_after
let flags t h = check t h; get t h col_flags
let key_fp t h = check t h; Bigarray.Array1.unsafe_get t.cols ((h * width) + col_key_fp)

let expired t h = flags t h land flag_expired <> 0
let via_intermediate t h = flags t h land flag_via_intermediate <> 0

let valid_at t h now =
  check t h;
  get t h col_not_before <= now && now <= get t h col_not_after

let blit_to_bytes t h buf dst =
  check t h;
  let off = get t h col_off and len = get t h col_len in
  if dst < 0 || dst + len > Bytes.length buf then
    invalid_arg "Arena.blit_to_bytes: destination too small";
  for i = 0 to len - 1 do
    Bytes.unsafe_set buf (dst + i) (Bigarray.Array1.unsafe_get t.blob (off + i))
  done

let der t h =
  check t h;
  let len = get t h col_len in
  let buf = Bytes.create len in
  blit_to_bytes t h buf 0;
  Bytes.unsafe_to_string buf

let decode t h = Certificate.decode (der t h)

let mark t = { m_count = t.n; m_bytes = t.blob_len }

let truncate t m =
  if m.m_count > t.n || m.m_bytes > t.blob_len then
    invalid_arg "Arena.truncate: mark beyond current extent";
  t.n <- m.m_count;
  t.blob_len <- m.m_bytes

let memory t =
  {
    blob_bytes = t.blob_len;
    column_bytes = t.n * width * 8;
    blob_capacity = Bigarray.Array1.dim t.blob;
    column_capacity = Bigarray.Array1.dim t.cols * 8;
  }

let bytes_per_cert t =
  if t.n = 0 then 0.0
  else float_of_int (t.blob_len + (t.n * width * 8)) /. float_of_int t.n

(* Streamed over fixed chunks: the digest never materialises the blob
   as one string, so fingerprinting a gigabyte arena allocates 64 KiB. *)
let digest t =
  let module H = Tangled_hash.Sha256 in
  let ctx = H.init () in
  let chunk = Bytes.create 65536 in
  let feed_blob lo len =
    let i = ref lo in
    let stop = lo + len in
    while !i < stop do
      let n = Stdlib.min (Bytes.length chunk) (stop - !i) in
      for k = 0 to n - 1 do
        Bytes.unsafe_set chunk k (Bigarray.Array1.unsafe_get t.blob (!i + k))
      done;
      H.feed_sub ctx (Bytes.unsafe_to_string chunk) ~off:0 ~len:n;
      i := !i + n
    done
  in
  feed_blob 0 t.blob_len;
  let row = Bytes.create (width * 8) in
  for h = 0 to t.n - 1 do
    for slot = 0 to width - 1 do
      Bytes.set_int64_be row (slot * 8)
        (Bigarray.Array1.unsafe_get t.cols ((h * width) + slot))
    done;
    H.feed_sub ctx (Bytes.unsafe_to_string row) ~off:0 ~len:(width * 8)
  done;
  H.finalize ctx
