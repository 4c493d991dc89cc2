(* The export→ingest loop: clean round trips are lossless, damaged
   round trips quarantine precisely, and the chaos harness passes at
   its pinned seed. *)

module Pipeline = Tangled_core.Pipeline
module Export = Tangled_core.Export
module Chaos = Tangled_core.Chaos
module Ingest = Tangled_ingest.Ingest
module Fault = Tangled_fault.Fault
module Net = Tangled_netalyzr.Netalyzr
module Notary = Tangled_notary.Notary
module Rs = Tangled_store.Root_store

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let world () = Lazy.force Pipeline.quick

(* The chaos harness wants enough sessions that its 1% relative
   tolerance sits well above the sampling noise of record-destroying
   faults; reuse the quick PKI so only the field data is regenerated. *)
let chaos_world =
  lazy
    (let q = world () in
     Pipeline.run
       ~config:{ Pipeline.quick_config with Pipeline.sessions = 20_000 }
       ~universe:q.Pipeline.universe ())

let clean_stats (r : 'a Ingest.ingest) name expected =
  check Alcotest.int (name ^ " accepted") expected r.Ingest.stats.Ingest.accepted;
  check Alcotest.int (name ^ " quarantined") 0
    r.Ingest.stats.Ingest.quarantined_total;
  check Alcotest.int (name ^ " missing") 0 r.Ingest.stats.Ingest.missing;
  check (Alcotest.option Alcotest.int) (name ^ " declared") (Some expected)
    r.Ingest.stats.Ingest.declared

let test_sessions_roundtrip () =
  let w = world () in
  let r = Ingest.sessions_of_string (Export.sessions_jsonl w) in
  let d = w.Pipeline.dataset in
  clean_stats r "sessions" (Net.total_sessions d);
  check Alcotest.int "total" (Net.total_sessions d) (Ingest.total_sessions r);
  check (Alcotest.float 1e-9) "extended fraction" (Net.extended_fraction d)
    (Ingest.extended_fraction r);
  check (Alcotest.float 1e-9) "rooted fraction" (Net.rooted_fraction d)
    (Ingest.rooted_fraction r);
  check Alcotest.int "handsets" (Net.estimated_handsets d)
    (Ingest.estimated_handsets r);
  check Alcotest.int "intercepted"
    (List.length (Net.intercepted_sessions d))
    (Ingest.intercepted_sessions r)

let test_notary_roundtrip () =
  let w = world () in
  let r = Ingest.notary_of_string (Export.notary_jsonl w) in
  let n = w.Pipeline.notary in
  clean_stats r "notary" (Notary.total n);
  check Alcotest.int "unexpired" (Notary.unexpired n) (Ingest.unexpired r)

let test_stores_roundtrip () =
  let w = world () in
  let expected =
    List.map (fun s -> (Rs.name s, Rs.cardinal s)) (Export.official_stores w)
  in
  let total = List.fold_left (fun a (_, n) -> a + n) 0 expected in
  let r = Ingest.stores_of_string (Export.stores_jsonl w) in
  clean_stats r "stores" total;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "store sizes" expected (Ingest.store_sizes r)

(* A manifest with no records after it is a dataset of zero records,
   not a record missing its fields. *)
let test_header_only () =
  let w = world () in
  let doc = Export.sessions_jsonl ~limit:0 w in
  check Alcotest.int "one line" 1
    (List.length (String.split_on_char '\n' (String.trim doc)));
  let r = Ingest.sessions_of_string doc in
  let st = r.Ingest.stats in
  check (Alcotest.option Alcotest.int) "declared" (Some 0) st.Ingest.declared;
  check Alcotest.int "seen" 0 st.Ingest.seen;
  check Alcotest.int "accepted" 0 st.Ingest.accepted;
  check Alcotest.int "quarantined" 0 st.Ingest.quarantined_total;
  check Alcotest.int "missing" 0 st.Ingest.missing;
  check Alcotest.string "digest" (Tangled_hash.Sha256.hex doc)
    st.Ingest.input_sha256

(* Quarantine entries name the physical line of the input: blank lines
   are skipped as records but still counted. *)
let test_physical_line_numbers () =
  let r =
    Ingest.notary_of_string
      "{\"kind\":\"notary\",\"exported_chains\":2}\n\n{bad\n\n[1]\n"
  in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
    "lines and labels"
    [ (3, "malformed-json"); (5, "bad-value") ]
    (List.map
       (fun (q : Ingest.quarantined) ->
         (q.Ingest.line, Ingest.reason_label q.Ingest.reason))
       r.Ingest.quarantine);
  check Alcotest.int "seen" 2 r.Ingest.stats.Ingest.seen;
  check Alcotest.int "missing" 0 r.Ingest.stats.Ingest.missing

let test_garbage_is_quarantined_not_fatal () =
  let r = Ingest.sessions_of_string "" in
  check Alcotest.int "empty accepted" 0 r.Ingest.stats.Ingest.accepted;
  let r = Ingest.sessions_of_string "\xffnot json at all" in
  check Alcotest.int "junk accepted" 0 r.Ingest.stats.Ingest.accepted;
  let r =
    Ingest.notary_of_string "{\"kind\":\"notary\",\"exported_chains\":2}\n[1,2]\n{\"subject\":3}\n"
  in
  check Alcotest.int "bad records accepted" 0 r.Ingest.stats.Ingest.accepted;
  check Alcotest.int "bad records quarantined" 2
    r.Ingest.stats.Ingest.quarantined_total

(* Raw NUL/control bytes are caught before the JSON parser ever runs
   and get their own taxonomy label; the whitespace controls a normal
   serializer emits (tab, CR) stay exempt. *)
let test_control_bytes_quarantined () =
  check Alcotest.bool "NUL detected" true (Ingest.has_control_bytes "a\x00b");
  check Alcotest.bool "DEL detected" true (Ingest.has_control_bytes "a\x7fb");
  check Alcotest.bool "ESC detected" true (Ingest.has_control_bytes "\x1b[1m");
  check Alcotest.bool "tab exempt" false (Ingest.has_control_bytes "a\tb");
  check Alcotest.bool "CR exempt" false (Ingest.has_control_bytes "a\rb");
  check Alcotest.bool "plain text clean" false (Ingest.has_control_bytes "{}");
  let w = world () in
  let doc = Export.sessions_jsonl ~limit:3 w in
  let lines = String.split_on_char '\n' (String.trim doc) in
  let header, records =
    match lines with h :: t -> (h, t) | [] -> assert false
  in
  let poisoned =
    List.mapi (fun i r -> if i = 1 then "\x00" ^ r else r) records
  in
  let r =
    Ingest.sessions_of_string (String.concat "\n" (header :: poisoned) ^ "\n")
  in
  check Alcotest.int "clean records accepted" 2 r.Ingest.stats.Ingest.accepted;
  check Alcotest.int "poisoned record quarantined" 1
    r.Ingest.stats.Ingest.quarantined_total;
  match r.Ingest.quarantine with
  | [ q ] ->
      check Alcotest.string "typed label" "control-bytes"
        (Ingest.reason_label q.Ingest.reason)
  | qs ->
      Alcotest.failf "expected one quarantine record, got %d" (List.length qs)

let test_duplicate_vs_conflict () =
  let w = world () in
  let doc = Export.sessions_jsonl ~limit:5 w in
  let lines = String.split_on_char '\n' (String.trim doc) in
  let header, records =
    match lines with h :: t -> (h, t) | [] -> assert false
  in
  let record = List.nth records 2 in
  (* an exact replay is a duplicate; a same-identity edit is a conflict *)
  let replayed = String.concat "\n" ((header :: records) @ [ record ]) ^ "\n" in
  let r = Ingest.sessions_of_string replayed in
  check Alcotest.int "replay accepted" 5 r.Ingest.stats.Ingest.accepted;
  check Alcotest.int "replay replays" 1 r.Ingest.stats.Ingest.replays;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "replay label"
    [ ("duplicate-record", 1) ]
    r.Ingest.stats.Ingest.by_label;
  let replace_once ~sub ~by s =
    let n = String.length s and m = String.length sub in
    let rec find i =
      if i + m > n then None
      else if String.sub s i m = sub then Some i
      else find (i + 1)
    in
    match find 0 with
    | None -> None
    | Some i ->
        Some (String.sub s 0 i ^ by ^ String.sub s (i + m) (n - i - m))
  in
  let conflicting =
    (* same session_id, different payload *)
    let edited =
      match replace_once ~sub:"\"rooted\":false" ~by:"\"rooted\":true" record with
      | Some e -> e
      | None -> (
          match
            replace_once ~sub:"\"rooted\":true" ~by:"\"rooted\":false" record
          with
          | Some e -> e
          | None -> Alcotest.fail "no rooted field in exported session")
    in
    String.concat "\n" ((header :: records) @ [ edited ]) ^ "\n"
  in
  let r = Ingest.sessions_of_string conflicting in
  check Alcotest.int "conflict accepted" 5 r.Ingest.stats.Ingest.accepted;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "conflict label"
    [ ("conflicting-record", 1) ]
    r.Ingest.stats.Ingest.by_label

let test_drop_reconciliation () =
  let w = world () in
  let doc = Export.sessions_jsonl ~limit:8 w in
  let lines = String.split_on_char '\n' (String.trim doc) in
  let kept = List.filteri (fun i _ -> i <> 3 && i <> 6) lines in
  let r = Ingest.sessions_of_string (String.concat "\n" kept ^ "\n") in
  check Alcotest.int "accepted" 6 r.Ingest.stats.Ingest.accepted;
  check Alcotest.int "missing" 2 r.Ingest.stats.Ingest.missing;
  check Alcotest.int "quarantined" 0 r.Ingest.stats.Ingest.quarantined_total

(* DER payload validation surfaces through the quarantine taxonomy:
   a truncated certificate body is a truncated record, any other
   malformation a bad value, a non-string a type mismatch. *)
let test_der_field_quarantine () =
  let ts = Tangled_util.Timestamp.to_utc_string (Tangled_util.Timestamp.of_date 2020 1 1) in
  let record fp der =
    Printf.sprintf
      "{\"store\":\"s\",\"subject\":\"cn\",\"hash_id\":\"h\",\"fingerprint_sha256\":%S,\"not_after\":%S,\"der\":%s}"
      fp ts der
  in
  let input =
    String.concat "\n"
      [
        "{\"kind\":\"stores\",\"total_certificates\":5}";
        record "f1" "\"0500\"" (* well-formed DER: accepted *);
        record "f2" "\"0405616263\"" (* body cut short *);
        record "f3" "\"04810161\"" (* non-minimal length *);
        record "f4" "\"zz\"" (* not hexadecimal *);
        record "f5" "5" (* wrong JSON type *);
      ]
    ^ "\n"
  in
  let r = Ingest.stores_of_string input in
  check Alcotest.int "accepted" 1 r.Ingest.stats.Ingest.accepted;
  check Alcotest.int "quarantined" 4 r.Ingest.stats.Ingest.quarantined_total;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "taxonomy labels"
    [ ("bad-value", 2); ("truncated-record", 1); ("type-mismatch", 1) ]
    (List.sort compare r.Ingest.stats.Ingest.by_label);
  check Alcotest.string "truncated mapping" "truncated-record"
    (Ingest.reason_label (Ingest.reason_of_der_error Tangled_asn1.Der.Truncated));
  check Alcotest.string "bad-length mapping" "bad-value"
    (Ingest.reason_label (Ingest.reason_of_der_error Tangled_asn1.Der.Bad_length))

(* the control-total digest is the SHA-256 of exactly the caller's
   bytes: blank lines, CRLF endings and a last line without its newline
   included *)
let test_input_digest () =
  let w = world () in
  let digest_of name input (st : Ingest.stats) =
    check Alcotest.string name (Tangled_hash.Sha256.hex input) st.Ingest.input_sha256
  in
  let jsonl = Export.sessions_jsonl ~limit:3 w in
  digest_of "jsonl digest" jsonl (Ingest.sessions_of_string jsonl).Ingest.stats;
  let stores = Export.stores_jsonl w in
  digest_of "stores digest" stores (Ingest.stores_of_string stores).Ingest.stats;
  let notary = Export.notary_jsonl ~limit:4 w in
  let ragged =
    "\n\n" ^ String.concat "\r\n\n" (String.split_on_char '\n' (String.trim notary))
  in
  let r = Ingest.notary_of_string ragged in
  digest_of "ragged digest" ragged r.Ingest.stats;
  check Alcotest.int "ragged accepted" 4 r.Ingest.stats.Ingest.accepted;
  digest_of "empty input digest" "" (Ingest.sessions_of_string "").Ingest.stats

(* Ingest allocates per line what that line needs — its substring and
   its parse tree, dropped before the next line — and keeps the
   accepted records.  On the quick world's three round trips it reads
   3.79, 2.95 and 2.86 minor words per input byte (sessions, notary,
   stores; dev build).  An ingest that parsed every line before its
   record loop and re-printed every accepted record for a snippet read
   5.94, 4.96 and 4.85. *)
let test_ingest_allocation () =
  let w = world () in
  let per_byte name doc ingest bound =
    let before = Gc.minor_words () in
    let (st : Ingest.stats) = ingest doc in
    let words = Gc.minor_words () -. before in
    check Alcotest.int (name ^ " quarantined") 0 st.Ingest.quarantined_total;
    let per_byte = words /. float_of_int (String.length doc) in
    if per_byte > bound then
      Alcotest.failf "%s ingest: %.0f minor words for %d input bytes (%.2f per \
                      byte, bound %.2f)"
        name words (String.length doc) per_byte bound
  in
  per_byte "sessions" (Export.sessions_jsonl w)
    (fun d -> (Ingest.sessions_of_string d).Ingest.stats) 3.9;
  per_byte "notary" (Export.notary_jsonl w)
    (fun d -> (Ingest.notary_of_string d).Ingest.stats) 3.05;
  per_byte "stores" (Export.stores_jsonl w)
    (fun d -> (Ingest.stores_of_string d).Ingest.stats) 2.95

let test_chaos_fixed_seed () =
  let w = Lazy.force chaos_world in
  let o = Chaos.run ~seed:12 ~rate:0.05 w in
  (match
     Tangled_obs.Obs.validate_trace
       (Tangled_obs.Obs.trace_jsonl ~jobs:w.Pipeline.jobs ())
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "chaos run trace rejected: %s" e);
  check Alcotest.bool "all faults accounted" true o.Chaos.accounted_all;
  check Alcotest.bool "within tolerance" true o.Chaos.within_tolerance;
  check Alcotest.bool "table 1 exact" true o.Chaos.table1_exact;
  check Alcotest.bool "verdict ok" true o.Chaos.ok;
  (* the run must actually have injected and quarantined something *)
  Alcotest.(check bool)
    "faults injected" true
    (List.length o.Chaos.accounting > 50);
  Alcotest.(check bool)
    "sessions quarantined" true
    (o.Chaos.sessions.Ingest.stats.Ingest.quarantined_total > 0);
  Alcotest.(check bool)
    "notary quarantined" true
    (o.Chaos.notary.Ingest.stats.Ingest.quarantined_total > 0);
  (* every fault kind fired at least once at this scale *)
  let kinds =
    List.sort_uniq compare
      (List.map
         (fun r -> Fault.kind_to_string r.Chaos.injection.Fault.kind)
         o.Chaos.accounting)
  in
  check Alcotest.int "all fault kinds exercised"
    (List.length Fault.all_kinds) (List.length kinds);
  (* the rendered report must carry the verdict *)
  let rendered = Chaos.render o in
  Alcotest.(check bool)
    "report has verdict" true
    (let needle = "Verdict: OK" in
     let n = String.length rendered and m = String.length needle in
     let rec find i =
       i + m <= n && (String.sub rendered i m = needle || find (i + 1))
     in
     find 0)

(* Export with any [limit] then ingest: lossless, no quarantine. *)
let prop_limit_roundtrip =
  QCheck.Test.make ~name:"export ~limit / ingest is lossless" ~count:20
    (QCheck.int_range 1 60)
    (fun n ->
      let w = world () in
      let r = Ingest.sessions_of_string (Export.sessions_jsonl ~limit:n w) in
      r.Ingest.stats.Ingest.accepted = n
      && r.Ingest.stats.Ingest.quarantined_total = 0
      && r.Ingest.stats.Ingest.missing = 0
      && Ingest.total_sessions r = n)

(* Fault injection at any seed/rate leaves ingestion total, and every
   non-drop fault lands in quarantine (accounting never leaks). *)
let prop_chaos_always_accounted =
  QCheck.Test.make ~name:"every injected fault is accounted, any seed"
    ~count:15
    QCheck.(pair (int_range 0 10_000) (int_range 1 3))
    (fun (seed, rate_i) ->
      let w = world () in
      let o = Chaos.run ~seed ~rate:(0.03 *. float_of_int rate_i) w in
      o.Chaos.accounted_all && o.Chaos.table1_exact)

let suite =
  [
    Alcotest.test_case "sessions jsonl roundtrip" `Quick test_sessions_roundtrip;
    Alcotest.test_case "notary roundtrip" `Quick test_notary_roundtrip;
    Alcotest.test_case "stores roundtrip (Table 1)" `Quick test_stores_roundtrip;
    Alcotest.test_case "garbage quarantined, never fatal" `Quick
      test_garbage_is_quarantined_not_fatal;
    Alcotest.test_case "control bytes get a typed label" `Quick
      test_control_bytes_quarantined;
    Alcotest.test_case "duplicate vs conflicting records" `Quick
      test_duplicate_vs_conflict;
    Alcotest.test_case "dropped records reconciled via manifest" `Quick
      test_drop_reconciliation;
    Alcotest.test_case "der payloads land in the taxonomy" `Quick
      test_der_field_quarantine;
    Alcotest.test_case "input digest covers the caller's bytes" `Quick
      test_input_digest;
    Alcotest.test_case "header-only dataset has no records" `Quick
      test_header_only;
    Alcotest.test_case "quarantine lines are physical lines" `Quick
      test_physical_line_numbers;
    Alcotest.test_case "ingest minor words per input byte" `Quick
      test_ingest_allocation;
    Alcotest.test_case "chaos run at pinned seed" `Slow test_chaos_fixed_seed;
    qtest prop_limit_roundtrip;
    qtest prop_chaos_always_accounted;
  ]
