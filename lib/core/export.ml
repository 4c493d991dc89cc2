module PD = Tangled_pki.Paper_data
module BP = Tangled_pki.Blueprint
module Rs = Tangled_store.Root_store
module C = Tangled_x509.Certificate
module Dn = Tangled_x509.Dn
module Net = Tangled_netalyzr.Netalyzr
module Notary = Tangled_notary.Notary
module Handshake = Tangled_tls.Handshake
module J = Tangled_util.Json
module Ts = Tangled_util.Timestamp
module Hex = Tangled_util.Hex

let probe_json (o : Handshake.outcome) =
  J.Obj
    [
      ("host", J.String o.Handshake.host);
      ("port", J.Int o.Handshake.port);
      ( "verdict",
        J.String
          (match o.Handshake.verdict with
          | Ok anchor -> "trusted:" ^ Dn.to_string anchor.C.subject
          | Error f -> "untrusted:" ^ Tangled_validation.Chain.failure_to_string f) );
      ("intercepted", J.Bool o.Handshake.intercepted);
      ("chain_length", J.Int (List.length o.Handshake.presented));
    ]

(* Deterministic per-session upload time, spread over the paper's
   collection window (Nov 2012 – Apr 2014) by a fixed multiplicative
   hash so exports never perturb the simulation's PRNG streams. *)
let session_timestamp (s : Net.session) =
  let window_start = Ts.of_date 2012 11 1 in
  let span = Ts.paper_epoch - window_start in
  window_start + (s.Net.session_id * 104_729 mod span)

let session_json (s : Net.session) =
  J.Obj
    [
      ("session_id", J.Int s.Net.session_id);
      ("timestamp", J.String (Ts.to_utc_string (session_timestamp s)));
      ("handset_id", J.Int s.Net.handset_id);
      ("network", J.String s.Net.identity.Net.network);
      ("public_ip", J.String s.Net.identity.Net.public_ip);
      ("model", J.String s.Net.identity.Net.model);
      ("os_version", J.String (PD.version_to_string s.Net.identity.Net.os_version));
      ("manufacturer", J.String s.Net.manufacturer);
      ("operator", J.String s.Net.operator);
      ("rooted", J.Bool s.Net.rooted);
      ("store_size", J.Int (List.length s.Net.store_keys));
      ("aosp_present", J.Int s.Net.aosp_present);
      ("additional", J.Int s.Net.additional);
      ("missing", J.Int s.Net.missing);
      ("additional_ids", J.List (List.map (fun id -> J.String id) s.Net.additional_ids));
      ("app_added", J.List (List.map (fun n -> J.String n) s.Net.app_added));
      ("probes", J.List (List.map probe_json s.Net.probes));
    ]

let exported_count limit full = match limit with Some n -> min n full | None -> full

let sessions_meta ?limit (w : Pipeline.t) =
  let d = w.Pipeline.dataset in
  [
    ("kind", J.String "sessions");
    ("tool", J.String "netalyzr-for-android (synthetic)");
    ("seed", J.Int w.Pipeline.config.Pipeline.seed);
    ("collected_at", J.String (Ts.to_utc_string Ts.paper_epoch));
    ("total_sessions", J.Int (Net.total_sessions d));
    (* the manifest's control total: how many records this document
       claims to carry — ingestion reconciles against it *)
    ("exported_sessions", J.Int (exported_count limit (Net.total_sessions d)));
    ("estimated_handsets", J.Int (Net.estimated_handsets d));
    ("unique_roots", J.Int (Net.unique_root_keys d));
  ]

let chain_json (c : Notary.chain) =
  J.Obj
    [
      ("subject", J.String (Dn.to_string c.Notary.leaf.C.subject));
      ("issuer", J.String (Dn.to_string c.Notary.leaf.C.issuer));
      ("not_before", J.String (Ts.to_utc_string c.Notary.leaf.C.not_before));
      ("not_after", J.String (Ts.to_utc_string c.Notary.leaf.C.not_after));
      ("expired", J.Bool c.Notary.expired);
      ("via_intermediate", J.Bool (c.Notary.intermediates <> []));
      ( "anchor",
        match c.Notary.anchor with
        | Some k -> J.String (Hex.encode (String.sub (Tangled_hash.Sha256.digest k) 0 8))
        | None -> J.Null );
    ]

let notary_meta ?limit (w : Pipeline.t) =
  let n = w.Pipeline.notary in
  let u = w.Pipeline.universe in
  let store_counts =
    List.map
      (fun v ->
        ( "aosp_" ^ PD.version_to_string v,
          J.Int (Notary.validated_by_store n (u.BP.aosp v)) ))
      PD.android_versions
    @ [
        ("mozilla", J.Int (Notary.validated_by_store n u.BP.mozilla));
        ("ios7", J.Int (Notary.validated_by_store n u.BP.ios7));
      ]
  in
  [
    ("kind", J.String "notary");
    ("source", J.String "icsi-certificate-notary (synthetic)");
    ("unexpired", J.Int (Notary.unexpired n));
    ("total", J.Int (Notary.total n));
    ("exported_chains", J.Int (exported_count limit (Notary.total n)));
    ("scale_vs_paper", J.Float n.Notary.scale);
    ("validated_by_store", J.Obj store_counts);
  ]

let cert_json store cert =
  J.Obj
    [
      ("store", J.String (Rs.name store));
      ("subject", J.String (Dn.to_string cert.C.subject));
      ("hash_id", J.String (C.subject_hash32 cert));
      ("fingerprint_sha256", J.String (Hex.encode (C.fingerprint cert)));
      ("not_after", J.String (Ts.to_utc_string cert.C.not_after));
    ]

let official_stores (w : Pipeline.t) =
  let u = w.Pipeline.universe in
  List.map (fun v -> u.BP.aosp v) PD.android_versions @ [ u.BP.mozilla; u.BP.ios7 ]

let stores_meta (w : Pipeline.t) =
  let stores = official_stores w in
  [
    ("kind", J.String "stores");
    ( "total_certificates",
      J.Int (List.fold_left (fun acc s -> acc + Rs.cardinal s) 0 stores) );
    ("sizes", J.Obj (List.map (fun s -> (Rs.name s, J.Int (Rs.cardinal s))) stores));
  ]

(* --- JSONL: one manifest line, then one record per line ---------------- *)

(* [records line] makes the records one at a time and hands each to
   [line], which renders it into the buffer at once: no list of record
   trees is held, and Notary chains are materialised from the arena one
   handle at a time. *)
let jsonl header records =
  let b = Buffer.create 65_536 in
  let line json =
    Buffer.add_string b (J.to_string json);
    Buffer.add_char b '\n'
  in
  line (J.Obj header);
  records line;
  Buffer.contents b

let sessions_jsonl ?limit (w : Pipeline.t) =
  let d = w.Pipeline.dataset in
  jsonl (sessions_meta ?limit w) (fun line ->
      for i = 0 to exported_count limit (Net.total_sessions d) - 1 do
        line (session_json d.Net.sessions.(i))
      done)

let notary_jsonl ?limit (w : Pipeline.t) =
  let n = w.Pipeline.notary in
  jsonl (notary_meta ?limit w) (fun line ->
      for i = 0 to exported_count limit (Notary.total n) - 1 do
        line (chain_json (Notary.chain n i))
      done)

let stores_jsonl (w : Pipeline.t) =
  jsonl (stores_meta w) (fun line ->
      List.iter
        (fun s -> List.iter (fun c -> line (cert_json s c)) (Rs.certs s))
        (official_stores w))

let write_text path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)
