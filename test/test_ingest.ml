(* The export→ingest loop: clean round trips are lossless, and damaged
   round trips quarantine precisely — every fault the test-side injector
   (fault_inject.ml) plants is accounted for, and the headline numbers
   survive, at a pinned seed and at any seed. *)

module Pipeline = Tangled_core.Pipeline
module Export = Tangled_core.Export
module Ingest = Tangled_ingest.Ingest
module Fault = Tangled_fault.Fault
module Net = Tangled_netalyzr.Netalyzr
module Notary = Tangled_notary.Notary
module Rs = Tangled_store.Root_store

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let world () = Lazy.force Pipeline.quick

(* The pinned chaos run wants enough sessions that its 1% relative
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

(* The CLI's kind detection reads the line the entry points read as the
   manifest: the first non-empty one, here after a blank line. *)
let test_manifest_kind () =
  let doc = "\n" ^ Export.notary_jsonl ~limit:5 (world ()) in
  check Alcotest.(option string) "kind" (Some "notary") (Ingest.manifest_kind doc);
  check Alcotest.(option int) "declared" (Some 5)
    (Ingest.notary_of_string doc).Ingest.stats.Ingest.declared;
  check Alcotest.(option string) "a record first" None
    (Ingest.manifest_kind "\n\n[1]\n")

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

(* --- the fault-accounting oracle ------------------------------------------ *)

(* Which quarantine labels may legitimately result from each fault
   kind.  A structural-prefix bit flip either breaks the syntax, renames
   the leading required field or lands on a control byte ('{' -> DEL,
   caught before any parse); a truncation always ends the record
   mid-value. *)
let observed_matches (inj : Fault_inject.injection) (reason : Ingest.reason) =
  match (inj.Fault_inject.kind, reason) with
  | Fault.Truncate, Ingest.Truncated_record -> true
  | Fault.Duplicate, Ingest.Duplicate_record _ -> true
  | Fault.Identity_conflict, Ingest.Conflicting_record _ -> true
  | Fault.Clock_skew, Ingest.Clock_skew _ -> true
  | Fault.Missing_field, Ingest.Missing_field f -> inj.Fault_inject.field = Some f
  | Fault.Type_confusion, Ingest.Type_mismatch f -> inj.Fault_inject.field = Some f
  | ( Fault.Bit_flip,
      ( Ingest.Malformed_json _ | Ingest.Control_bytes _ | Ingest.Missing_field _
      | Ingest.Type_mismatch _ | Ingest.Truncated_record | Ingest.Bad_value _ ) ) ->
      true
  | _ -> false

(* The injected faults that ingest did not account for, described: each
   fault with an output line must be quarantined at that line under a
   label its kind can produce, and the drops together must be the
   records the manifest finds missing. *)
let unaccounted dataset ledger (r : 'a Ingest.ingest) =
  let by_line = Hashtbl.create 64 in
  List.iter
    (fun (q : Ingest.quarantined) -> Hashtbl.replace by_line q.Ingest.line q)
    r.Ingest.quarantine;
  let is_drop (inj : Fault_inject.injection) = inj.Fault_inject.kind = Fault.Drop in
  let drops = List.length (List.filter is_drop ledger) in
  let missing = r.Ingest.stats.Ingest.missing in
  List.filter_map
    (fun (inj : Fault_inject.injection) ->
      let observed =
        match inj.Fault_inject.out_line with
        | None when missing = drops -> None
        | None -> Some (Printf.sprintf "%d missing vs %d dropped" missing drops)
        | Some line -> (
            match Hashtbl.find_opt by_line line with
            | None -> Some "not quarantined"
            | Some q when observed_matches inj q.Ingest.reason -> None
            | Some q -> Some (Ingest.reason_label q.Ingest.reason))
      in
      Option.map
        (Printf.sprintf "%s record %d (%s: %s), observed %s" dataset
           inj.Fault_inject.record
           (Fault.kind_to_string inj.Fault_inject.kind)
           inj.Fault_inject.note)
        observed)
    ledger

(* Table 2's shares: for each of the five most frequent keys among the
   clean sessions, its share of the clean and of the damaged sessions *)
let top_shares label key clean damaged =
  let tally (r : Ingest.session_view Ingest.ingest) =
    let tbl = Hashtbl.create 64 in
    Array.iter
      (fun s ->
        Hashtbl.replace tbl (key s)
          (1 + Option.value ~default:0 (Hashtbl.find_opt tbl (key s))))
      r.Ingest.records;
    (tbl, float_of_int (max 1 (Array.length r.Ingest.records)))
  in
  let c, n_clean = tally clean and d, n_damaged = tally damaged in
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) c []
  |> List.sort (fun (ka, a) (kb, b) -> if a <> b then compare b a else compare ka kb)
  |> List.filteri (fun i _ -> i < 5)
  |> List.map (fun (k, n) ->
         ( Printf.sprintf "%s share: %s" label k,
           float_of_int n /. n_clean,
           float_of_int (Option.value ~default:0 (Hashtbl.find_opt d k)) /. n_damaged ))

type chaos = {
  sessions : Ingest.session_view Ingest.ingest;  (** damaged, re-ingested *)
  notary : Ingest.chain_view Ingest.ingest;  (** damaged, re-ingested *)
  injected : Fault_inject.injection list;  (** both ledgers *)
  unaccounted : string list;
  drifted : string list;  (** headline rows beyond the 1% tolerance *)
  table1_exact : bool;
}

(* Export the world, damage the field data (the store dump is reference
   data and stays clean), re-ingest, and audit: every fault accounted,
   the extended-store fraction and the top-5 device and manufacturer
   shares within 1% relative of the clean run, Table 1 exact. *)
let chaos_run ~seed ~rate w =
  let sessions_doc = Export.sessions_jsonl w and notary_doc = Export.notary_jsonl w in
  let sessions_bad, sessions_ledger = Fault_inject.inject ~seed ~rate sessions_doc in
  let notary_bad, notary_ledger = Fault_inject.inject ~seed:(seed + 1) ~rate notary_doc in
  let sessions = Ingest.sessions_of_string sessions_bad in
  let notary = Ingest.notary_of_string notary_bad in
  let clean = Ingest.sessions_of_string sessions_doc in
  let rel_delta c d = if c = 0.0 then Float.abs d else Float.abs (d -. c) /. Float.abs c in
  let rows =
    ( "extended-store fraction",
      Ingest.extended_fraction clean,
      Ingest.extended_fraction sessions )
    :: top_shares "device" (fun s -> s.Ingest.manufacturer ^ " " ^ s.Ingest.model) clean
         sessions
    @ top_shares "manufacturer" (fun s -> s.Ingest.manufacturer) clean sessions
  in
  {
    sessions;
    notary;
    injected = sessions_ledger @ notary_ledger;
    unaccounted =
      unaccounted "sessions" sessions_ledger sessions
      @ unaccounted "notary" notary_ledger notary;
    drifted =
      List.filter_map
        (fun (metric, c, d) ->
          if rel_delta c d <= 0.01 +. 1e-9 then None
          else Some (Printf.sprintf "%s: clean %.4f, damaged %.4f" metric c d))
        rows;
    table1_exact =
      Ingest.store_sizes (Ingest.stores_of_string (Export.stores_jsonl w))
      = List.map (fun s -> (Rs.name s, Rs.cardinal s)) (Export.official_stores w);
  }

let test_chaos_fixed_seed () =
  let w = Lazy.force chaos_world in
  let o = chaos_run ~seed:12 ~rate:0.05 w in
  (match
     Tangled_obs.Obs.validate_trace
       (Tangled_obs.Obs.trace_jsonl ~jobs:w.Pipeline.jobs ())
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "chaos run trace rejected: %s" e);
  check Alcotest.(list string) "all faults accounted" [] o.unaccounted;
  check Alcotest.(list string) "within tolerance" [] o.drifted;
  check Alcotest.bool "table 1 exact" true o.table1_exact;
  check Alcotest.bool "verdict ok" true
    (o.unaccounted = [] && o.drifted = [] && o.table1_exact);
  (* the run must actually have injected and quarantined something *)
  Alcotest.(check bool) "faults injected" true (List.length o.injected > 50);
  Alcotest.(check bool)
    "sessions quarantined" true
    (o.sessions.Ingest.stats.Ingest.quarantined_total > 0);
  Alcotest.(check bool)
    "notary quarantined" true
    (o.notary.Ingest.stats.Ingest.quarantined_total > 0);
  (* every fault kind fired at least once at this scale *)
  let kinds =
    List.sort_uniq compare
      (List.map (fun (i : Fault_inject.injection) -> i.Fault_inject.kind) o.injected)
  in
  check Alcotest.int "all fault kinds exercised"
    (List.length Fault.all_kinds) (List.length kinds)

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
      let o = chaos_run ~seed ~rate:(0.03 *. float_of_int rate_i) (world ()) in
      o.unaccounted = [] && o.table1_exact)

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
    Alcotest.test_case "the manifest kind is read where ingest reads it" `Quick
      test_manifest_kind;
  ]
