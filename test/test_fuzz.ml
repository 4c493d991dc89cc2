(* Robustness fuzzing: the parsers must return errors, never crash, on
   arbitrary and on mutated-valid input. *)

module Der = Tangled_asn1.Der
module C = Tangled_x509.Certificate
module Pem = Tangled_x509.Pem
module Dn = Tangled_x509.Dn
module Authority = Tangled_x509.Authority
module Chain = Tangled_validation.Chain
module Rs = Tangled_store.Root_store
module Prng = Tangled_util.Prng
module Ts = Tangled_util.Timestamp

let qtest = QCheck_alcotest.to_alcotest

let prop_der_decode_total =
  QCheck.Test.make ~name:"Der.decode never raises" ~count:2000 QCheck.string (fun s ->
      match Der.decode s with Ok _ | Error _ -> true)

let prop_cert_decode_total =
  QCheck.Test.make ~name:"Certificate.decode never raises" ~count:1000 QCheck.string
    (fun s -> match C.decode s with Ok _ | Error _ -> true)

let prop_pem_decode_total =
  QCheck.Test.make ~name:"Pem.decode_all never raises" ~count:1000 QCheck.string
    (fun s -> match Pem.decode_all s with Ok _ | Error _ -> true)

let prop_base64_decode_total =
  QCheck.Test.make ~name:"base64 decode never raises" ~count:1000 QCheck.string
    (fun s -> match Pem.base64_decode s with Ok _ | Error _ -> true)

(* Mutation fuzzing: flip one byte of a valid certificate; the decoder
   must either reject it or produce a certificate whose signature no
   longer verifies (the bytes matter). *)

let fixture =
  lazy
    (let rng = Prng.create 4242 in
     let root = Authority.self_signed ~bits:512 rng (Dn.make "Fuzz Root") in
     let leaf =
       Authority.issue_leaf ~bits:512 rng ~parent:root ~dns_names:[ "f.example" ]
         (Dn.make "f.example")
     in
     (root, leaf))

let prop_mutated_cert_rejected_or_unverifiable =
  QCheck.Test.make ~name:"bit-flipped certificates never verify" ~count:300
    QCheck.(pair small_nat small_nat)
    (fun (pos_seed, bit) ->
      let root, leaf = Lazy.force fixture in
      let raw = Bytes.of_string (C.encode leaf) in
      let pos = pos_seed mod Bytes.length raw in
      Bytes.set raw pos
        (Char.chr (Char.code (Bytes.get raw pos) lxor (1 lsl (bit mod 8))));
      let mutated = Bytes.to_string raw in
      QCheck.assume (mutated <> C.encode leaf);
      match C.decode mutated with
      | Error _ -> true
      | Ok cert ->
          (* parsed despite the flip: the signature must now fail, or the
             flip landed outside the signed region entirely and produced
             an identical TBS + signature (impossible since bytes differ
             somewhere inside the TLV tree) *)
          not
            (C.verify_signature cert
               ~issuer_key:root.Authority.key.Tangled_crypto.Rsa.pub)
          || String.equal (C.byte_identity cert) (C.byte_identity leaf))

(* Random chains never validate against an empty or unrelated store,
   and Chain.validate is total. *)
let prop_validate_total =
  QCheck.Test.make ~name:"Chain.validate total on junk pools" ~count:200
    QCheck.(int_range 0 1000)
    (fun seed ->
      let rng = Prng.create seed in
      let root, leaf = Lazy.force fixture in
      let pool =
        List.init (Prng.int rng 3) (fun _ ->
            if Prng.bool rng then leaf else root.Authority.certificate)
      in
      let store = Rs.empty "empty" in
      match (Chain.validate ~now:Ts.paper_epoch ~store (leaf :: pool)).Chain.verdict with
      | Ok _ -> false (* empty store can never anchor *)
      | Error _ -> true)

(* The ingestion stack is total: arbitrary bytes through the JSON
   parser and every ingest entry point yield a value, never an
   exception. *)

module J = Tangled_util.Json
module B = Tangled_numeric.Bigint
module Ingest = Tangled_ingest.Ingest

let prop_json_parse_total =
  QCheck.Test.make ~name:"Json.parse never raises" ~count:2000 QCheck.string
    (fun s -> match J.parse s with Ok _ | Error _ -> true)

(* Structured JSON round-trips exactly (floats excluded: rendering is
   %.12g, not shortest-roundtrip). *)
let gen_json =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return J.Null;
        map (fun b -> J.Bool b) bool;
        map (fun i -> J.Int i) int;
        map (fun s -> J.String s) (string_size ~gen:printable (0 -- 12));
      ]
  in
  let key = string_size ~gen:(char_range 'a' 'z') (1 -- 8) in
  sized @@ fix (fun self n ->
      if n <= 0 then scalar
      else
        frequency
          [
            (2, scalar);
            (1, map (fun l -> J.List l) (list_size (0 -- 4) (self (n / 2))));
            ( 1,
              map
                (fun kvs ->
                  (* duplicate keys would not round-trip through assoc *)
                  let seen = Hashtbl.create 8 in
                  J.Obj
                    (List.filter
                       (fun (k, _) ->
                         if Hashtbl.mem seen k then false
                         else (Hashtbl.add seen k (); true))
                       kvs))
                (list_size (0 -- 4) (pair key (self (n / 2)))) );
          ])

let prop_json_roundtrip =
  QCheck.Test.make ~name:"Json print/parse roundtrip" ~count:500
    (QCheck.make ~print:J.to_string gen_json)
    (fun j ->
      match J.parse (J.to_string j) with
      | Ok j' -> j = j'
      | Error _ -> false)

let prop_json_pretty_roundtrip =
  QCheck.Test.make ~name:"Json pretty-print/parse roundtrip" ~count:500
    (QCheck.make ~print:J.to_string gen_json)
    (fun j ->
      match J.parse (J.to_string ~pretty:true j) with
      | Ok j' -> j = j'
      | Error _ -> false)

(* Any finite float prints to a literal that parses back to the same
   float: arbitrary bit patterns, and epoch timestamps to the
   microsecond (a trace span's start_s), which 12 significant digits
   cut to 10 ms. *)
let prop_json_float_roundtrip =
  let epoch_us =
    QCheck.Gen.map
      (fun us -> float_of_int us /. 1e6)
      QCheck.Gen.(1_300_000_000_000_000 -- 2_100_000_000_000_000)
  in
  QCheck.Test.make ~name:"Json float print/parse roundtrip" ~count:1000
    (QCheck.make ~print:string_of_float
       QCheck.Gen.(frequency [ (1, float); (1, epoch_us) ]))
    (fun f ->
      QCheck.assume (Float.is_finite f);
      match J.parse (J.to_string (J.Float f)) with
      | Ok (J.Float g) -> Float.equal f g
      | Ok _ | Error _ -> false)

let prop_ingest_total =
  QCheck.Test.make ~name:"Ingest entry points never raise" ~count:600
    QCheck.string (fun s ->
      let ok : 'a. 'a Ingest.ingest -> bool =
       fun r ->
        r.Ingest.stats.Ingest.accepted >= 0
        && r.Ingest.stats.Ingest.quarantined_total
           = List.length r.Ingest.quarantine
      in
      ok (Ingest.sessions_of_string s)
      && ok (Ingest.notary_of_string s)
      && ok (Ingest.stores_of_string s))

(* A harsher corpus than uniform junk: take a valid export and smash it
   with the fault operators at high rates — ingestion must stay total
   and every quarantined record must carry a taxonomy label. *)
let export_fixture =
  lazy
    (let w = Lazy.force Tangled_core.Pipeline.quick in
     Tangled_core.Export.sessions_jsonl ~limit:60 w)

let prop_ingest_total_on_faulted_exports =
  QCheck.Test.make ~name:"Ingest total on fault-injected exports" ~count:100
    QCheck.(pair (int_range 0 100_000) (int_range 1 10))
    (fun (seed, rate_i) ->
      let doc = Lazy.force export_fixture in
      let damaged, _ledger =
        Fault_inject.inject ~seed ~rate:(0.1 *. float_of_int rate_i) doc
      in
      let r = Ingest.sessions_of_string damaged in
      List.for_all
        (fun (q : Ingest.quarantined) ->
          String.length (Ingest.reason_label q.Ingest.reason) > 0)
        r.Ingest.quarantine)

let prop_bigint_parse_total =
  QCheck.Test.make ~name:"Bigint.of_string/of_hex never raise" ~count:1000
    QCheck.string (fun s ->
      (match B.of_string s with Ok _ | Error _ -> true)
      && match B.of_hex s with Ok _ | Error _ -> true)

let suite =
  [
    qtest prop_der_decode_total;
    qtest prop_cert_decode_total;
    qtest prop_pem_decode_total;
    qtest prop_base64_decode_total;
    qtest prop_mutated_cert_rejected_or_unverifiable;
    qtest prop_validate_total;
    qtest prop_json_parse_total;
    qtest prop_json_roundtrip;
    qtest prop_json_pretty_roundtrip;
    qtest prop_json_float_roundtrip;
    qtest prop_ingest_total;
    qtest prop_ingest_total_on_faulted_exports;
    qtest prop_bigint_parse_total;
  ]
