(* The trust-decision server: total decoding under fuzzed frames, each
   robustness mechanism — admission control, deadlines, retry/backoff,
   snapshot degradation, drain, the bounded quarantine — pinned by a
   unit test, and the whole contract composed on random bursts of
   frames and faults against the reference model (serve_model.ml). *)

module Pipeline = Tangled_core.Pipeline
module Export = Tangled_core.Export
module Serve = Tangled_serve.Serve
module Ingest = Tangled_ingest.Ingest
module Fault = Tangled_fault.Fault
module J = Tangled_util.Json

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let world () = Lazy.force Pipeline.quick

let server ?config () = Serve.create ?config (world ())

let frame fields = J.to_string (J.Obj fields)
let health id = frame [ ("id", J.Int id); ("op", J.String "health") ]

let known_statuses = [ "ok"; "error"; "timeout"; "overloaded"; "draining" ]

let status_of line =
  match J.parse line with
  | Ok json -> (
      match J.member "status" json with
      | Some (J.String s) -> Some s
      | _ -> None)
  | Error _ -> None

let error_label line =
  match J.parse line with
  | Ok json -> (
      match J.member "error" json with
      | Some e -> (
          match J.member "label" e with
          | Some (J.String l) -> Some l
          | _ -> None)
      | None -> None)
  | Error _ -> None

(* a clock the tests advance by hand, for deterministic deadlines *)
let fake_clock () =
  let now = ref 0.0 in
  ((fun () -> now := !now +. 1.0; !now), now)

(* --- decoder totality (fuzz) ------------------------------------------- *)

(* One long-lived server eats arbitrary byte sequences: every frame —
   valid, malformed, binary junk — must yield exactly one well-formed
   response, and the control totals must stay reconciled.  The server
   is shared across iterations, so the property also covers state
   carried between hostile bursts. *)
let prop_serve_total =
  let shared = lazy (server ()) in
  QCheck.Test.make ~name:"serve_burst total on arbitrary bytes" ~count:400
    QCheck.(small_list string)
    (fun lines ->
      let t = Lazy.force shared in
      let responses = Serve.serve_burst t lines in
      List.length responses = List.length lines
      && List.for_all
           (fun r ->
             match status_of r with
             | Some s -> List.mem s known_statuses
             | None -> false)
           responses
      && Serve.reconciled (Serve.summary t))

(* every quarantined frame carries a label from the shared ingest
   taxonomy, and quarantine records line up with error responses *)
let prop_malformed_quarantined =
  QCheck.Test.make ~name:"malformed frames land in the ingest taxonomy"
    ~count:200 QCheck.string
    (fun s ->
      QCheck.assume (match J.parse s with Ok (J.Obj _) -> false | _ -> true);
      let t = server () in
      match Serve.serve_burst t [ s ] with
      | [ r ] ->
          status_of r = Some "error"
          && (match Serve.quarantine t with
             | [ q ] -> String.length (Ingest.reason_label q.Ingest.reason) > 0
             | _ -> false)
      | _ -> false)

(* --- unit: protocol basics --------------------------------------------- *)

let test_basic_ops () =
  let t = server () in
  (match Serve.serve_burst t [ health 1 ] with
  | [ r ] ->
      check (Alcotest.option Alcotest.string) "health ok" (Some "ok")
        (status_of r)
  | _ -> Alcotest.fail "expected one response");
  (match
     Serve.serve_burst t
       [ frame [ ("id", J.String "d1"); ("op", J.String "diff");
                 ("store", J.String "mozilla") ] ]
   with
  | [ r ] ->
      check (Alcotest.option Alcotest.string) "diff ok" (Some "ok") (status_of r);
      (* the id round-trips verbatim, string-typed ids included *)
      check Alcotest.bool "id echoed" true
        (match J.parse r with
        | Ok j -> J.member "id" j = Some (J.String "d1")
        | Error _ -> false)
  | _ -> Alcotest.fail "expected one response");
  match
    Serve.serve_burst t
      [ frame [ ("id", J.Int 3); ("op", J.String "diff");
                ("store", J.String "waterfox") ] ]
  with
  | [ r ] ->
      check (Alcotest.option Alcotest.string) "unknown store is typed"
        (Some "unknown-store") (error_label r)
  | _ -> Alcotest.fail "expected one response"

let test_schema_violations_quarantined () =
  let t = server () in
  let bad =
    [
      "";                                          (* empty line *)
      "\x00{\"id\":1,\"op\":\"health\"}";          (* control bytes *)
      "[1,2,3]";                                   (* not an object *)
      "{\"op\":\"health\"}";                       (* missing id *)
      "{\"id\":1}";                                (* missing op *)
      "{\"id\":true,\"op\":\"health\"}";           (* id of the wrong type *)
      "{\"id\":1,\"op\":\"warp\"}";                (* unknown op *)
      "{\"id\":1,\"op\":\"health\",\"deadline_ms\":-5}";
      "{\"id\":1,\"op\":\"validate\",\"store\":\"aosp44\"}"; (* no chain *)
    ]
  in
  let responses = Serve.serve_burst t bad in
  check Alcotest.int "one response per frame" (List.length bad)
    (List.length responses);
  List.iter
    (fun r ->
      check (Alcotest.option Alcotest.string) "typed error" (Some "error")
        (status_of r))
    responses;
  let s = Serve.summary t in
  check Alcotest.int "all quarantined" (List.length bad) s.Serve.quarantined;
  check Alcotest.bool "reconciled" true (Serve.reconciled s);
  let labels =
    List.map (fun (q : Ingest.quarantined) -> Ingest.reason_label q.Ingest.reason)
      (Serve.quarantine t)
  in
  check Alcotest.bool "control-bytes label present" true
    (List.mem "control-bytes" labels);
  check Alcotest.bool "missing-field label present" true
    (List.mem "missing-field" labels)

(* --- unit: admission control ------------------------------------------- *)

let test_overload_sheds_explicitly () =
  let config = { Serve.default_config with Serve.queue_capacity = 4 } in
  let t = server ~config () in
  let burst = List.init 10 health in
  let responses = Serve.serve_burst t burst in
  check Alcotest.int "one response per frame" 10 (List.length responses);
  let statuses = List.filter_map status_of responses in
  check Alcotest.int "admitted answered" 4
    (List.length (List.filter (( = ) "ok") statuses));
  check Alcotest.int "surplus shed" 6
    (List.length (List.filter (( = ) "overloaded") statuses));
  let s = Serve.summary t in
  check Alcotest.int "shed counted" 6 s.Serve.shed;
  check Alcotest.bool "reconciled" true (Serve.reconciled s)

(* --- unit: deadlines ---------------------------------------------------- *)

let test_deadline_times_out () =
  (* the fake clock advances 1s per reading: any op with a checkpoint
     blows a sub-second deadline deterministically *)
  let clock, _ = fake_clock () in
  let config = { Serve.default_config with Serve.clock } in
  let t = server ~config () in
  match
    Serve.serve_burst t
      [
        frame
          [ ("id", J.Int 1); ("op", J.String "diff");
            ("store", J.String "mozilla"); ("deadline_ms", J.Int 100) ];
        health 2;
      ]
  with
  | [ r1; r2 ] ->
      check (Alcotest.option Alcotest.string) "deadline exceeded"
        (Some "timeout") (status_of r1);
      (* health has no checkpoint: it answers even under the fake clock *)
      check (Alcotest.option Alcotest.string) "next request unaffected"
        (Some "ok") (status_of r2);
      let s = Serve.summary t in
      check Alcotest.int "timeout counted" 1 s.Serve.timed_out;
      check Alcotest.bool "reconciled" true (Serve.reconciled s)
  | _ -> Alcotest.fail "expected two responses"

(* --- unit: retry / backoff --------------------------------------------- *)

let test_transient_fault_retries_then_succeeds () =
  let config =
    {
      Serve.default_config with
      Serve.fault_hook =
        (fun ~seq:_ ~attempt -> if attempt < 2 then Some Fault.Truncate else None);
    }
  in
  let t = server ~config () in
  (match Serve.serve_burst t [ health 1 ] with
  | [ r ] ->
      check (Alcotest.option Alcotest.string) "recovers to ok" (Some "ok")
        (status_of r)
  | _ -> Alcotest.fail "expected one response");
  let s = Serve.summary t in
  check Alcotest.int "two retries" 2 s.Serve.retries;
  (* exponential: base, then double — recorded, never slept *)
  check (Alcotest.float 1e-12) "backoff doubles"
    (3.0 *. Serve.default_config.Serve.backoff_s)
    s.Serve.backoff_s_total

let test_transient_fault_exhausts_budget () =
  let config =
    {
      Serve.default_config with
      Serve.fault_hook = (fun ~seq:_ ~attempt:_ -> Some Fault.Bit_flip);
    }
  in
  let t = server ~config () in
  (match Serve.serve_burst t [ health 1 ] with
  | [ r ] ->
      check (Alcotest.option Alcotest.string) "typed transient error"
        (Some "fault-transient") (error_label r)
  | _ -> Alcotest.fail "expected one response");
  let s = Serve.summary t in
  check Alcotest.int "budget spent" Serve.default_config.Serve.max_retries
    s.Serve.retries;
  check Alcotest.int "typed error counted" 1 s.Serve.typed_errors

let test_permanent_fault_quarantines () =
  let config =
    {
      Serve.default_config with
      Serve.fault_hook = (fun ~seq:_ ~attempt:_ -> Some Fault.Missing_field);
    }
  in
  let t = server ~config () in
  (match Serve.serve_burst t [ health 1 ] with
  | [ r ] ->
      check (Alcotest.option Alcotest.string) "typed poison error"
        (Some "poisoned-request") (error_label r)
  | _ -> Alcotest.fail "expected one response");
  let s = Serve.summary t in
  check Alcotest.int "no retries for poison" 0 s.Serve.retries;
  check Alcotest.int "request quarantined" 1 s.Serve.quarantined;
  check Alcotest.bool "reconciled" true (Serve.reconciled s)

(* --- unit: snapshot degradation ---------------------------------------- *)

let test_reload_good_and_poisoned () =
  let t = server () in
  let doc = Export.stores_jsonl (world ()) in
  let reload id payload =
    frame [ ("id", J.Int id); ("op", J.String "reload");
            ("payload", J.String payload) ]
  in
  let config = { Serve.default_config with Serve.max_frame_bytes = 1 lsl 23 } in
  let t = if String.length doc > 1 lsl 19 then server ~config () else t in
  (* clean payload: the epoch advances *)
  (match Serve.serve_burst t [ reload 1 doc ] with
  | [ r ] ->
      check (Alcotest.option Alcotest.string) "clean reload ok" (Some "ok")
        (status_of r)
  | _ -> Alcotest.fail "expected one response");
  check Alcotest.int "epoch advanced" 2 (Serve.summary t).Serve.epoch;
  (* a truncated payload is rejected; the last good snapshot survives *)
  let poisoned = String.sub doc 0 (String.length doc - 40) in
  (match Serve.serve_burst t [ reload 2 poisoned ] with
  | [ r ] ->
      check (Alcotest.option Alcotest.string) "poisoned reload rejected"
        (Some "update-rejected") (error_label r)
  | _ -> Alcotest.fail "expected one response");
  let s = Serve.summary t in
  check Alcotest.int "epoch unchanged" 2 s.Serve.epoch;
  check Alcotest.int "one accepted" 1 s.Serve.reloads_accepted;
  check Alcotest.int "one rejected" 1 s.Serve.reloads_rejected;
  (* reads still answer from the surviving snapshot: the certificate
     count and per-store sizes [stores] reports are its own *)
  let snapshot_stats () =
    match
      Serve.serve_burst t [ frame [ ("id", J.Int 3); ("op", J.String "stores") ] ]
    with
    | [ r ] -> (
        check (Alcotest.option Alcotest.string) "reads keep answering" (Some "ok")
          (status_of r);
        match J.parse r with
        | Ok json -> (
            match J.member "result" json with
            | Some result -> (
                match (J.member "corpus_certs" result, J.member "sizes" result) with
                | Some (J.Int c), Some (J.Obj sizes) ->
                    ( c,
                      List.map
                        (function
                          | store, J.Int n -> (store, n)
                          | store, _ -> Alcotest.failf "size of %s is not an int" store)
                        sizes )
                | _ -> Alcotest.fail "stores response lacks the snapshot's sizes")
            | None -> Alcotest.fail "stores response lacks a result")
        | Error e -> Alcotest.fail e)
    | _ -> Alcotest.fail "expected one response"
  in
  let certs, sizes = snapshot_stats () in
  check Alcotest.bool "snapshot non-empty" true (certs > 0 && sizes <> []);
  check Alcotest.int "store sizes sum to the certificate count" certs
    (List.fold_left (fun acc (_, n) -> acc + n) 0 sizes);
  let same_snapshot = Alcotest.(pair int (list (pair string int))) in
  (* another poisoned attempt must leave the snapshot unchanged *)
  (match Serve.serve_burst t [ reload 4 poisoned ] with
  | [ r ] ->
      check (Alcotest.option Alcotest.string) "second poison rejected"
        (Some "update-rejected") (error_label r)
  | _ -> Alcotest.fail "expected one response");
  check same_snapshot "rejected reload changes nothing" (certs, sizes)
    (snapshot_stats ());
  (* a header-only dump is rejected too: the export's own manifest
     line (every declared certificate missing), and a manifest that
     declares zero, which reconciles but would serve no store *)
  let manifest = String.sub doc 0 (String.index doc '\n' + 1) in
  List.iteri
    (fun i payload ->
      (match Serve.serve_burst t [ reload (5 + i) payload ] with
      | [ r ] ->
          check (Alcotest.option Alcotest.string) "header-only reload rejected"
            (Some "update-rejected") (error_label r)
      | _ -> Alcotest.fail "expected one response");
      check Alcotest.int "header-only: epoch unchanged" 2 (Serve.summary t).Serve.epoch)
    [ manifest; "{\"kind\":\"stores\",\"total_certificates\":0}\n" ];
  check same_snapshot "header-only reloads change nothing" (certs, sizes)
    (snapshot_stats ())

(* --- unit: the request-level decision cache ---------------------------- *)

(* the cache member of a [stores] response, as raw JSON text *)
let stores_response t =
  match
    Serve.serve_burst t [ frame [ ("id", J.Int 0); ("op", J.String "stores") ] ]
  with
  | [ r ] -> r
  | _ -> Alcotest.fail "expected one stores response"

let cache_member line =
  match J.parse line with
  | Ok json -> (
      match J.member "result" json with
      | Some result -> (
          match J.member "cache" result with
          | Some c -> c
          | None -> Alcotest.fail "stores response lacks cache stats")
      | None -> Alcotest.fail "stores response lacks a result")
  | Error e -> Alcotest.fail e

let cache_int line field =
  match J.member field (cache_member line) with
  | Some (J.Int v) -> v
  | _ -> Alcotest.failf "cache stats lack %s" field

(* 50k requests through a deliberately small cache: live entries never
   exceed capacity, every frame still answers ok, eviction pressure is
   real (more distinct keys than slots), and the heap high-water mark
   stays flat once warm — the regression the unbounded memo this cache
   replaced would fail *)
let test_warm_serve_cache_bounded () =
  let module BP = Tangled_pki.Blueprint in
  let u = (world ()).Pipeline.universe in
  let distinct = min (Array.length u.BP.roots) 600 in
  let capacity = max 4 (distinct / 2) in
  let config =
    {
      Serve.default_config with
      Serve.queue_capacity = 256;
      cache_capacity = capacity;
    }
  in
  let t = server ~config () in
  let rng = Tangled_util.Prng.create 5050 in
  let coverage i =
    let r = u.BP.roots.(Tangled_util.Prng.int rng distinct) in
    frame
      [ ("id", J.Int i); ("op", J.String "coverage");
        ("root", J.String r.BP.display_name) ]
  in
  let total = 50_000 and burst_size = 250 in
  let warm_top = ref 0 in
  for bi = 0 to (total / burst_size) - 1 do
    let burst = List.init burst_size (fun j -> coverage ((bi * burst_size) + j)) in
    List.iter
      (fun r ->
        if status_of r <> Some "ok" then Alcotest.failf "non-ok response: %s" r)
      (Serve.serve_burst t burst);
    if bi mod 20 = 0 then begin
      let line = stores_response t in
      let entries = cache_int line "entries" in
      if entries > capacity then
        Alcotest.failf "cache grew to %d entries (capacity %d)" entries capacity
    end;
    (* high-water after the cache is full and the arena has settled *)
    if bi = 19 then warm_top := (Gc.quick_stat ()).Gc.top_heap_words
  done;
  let line = stores_response t in
  check Alcotest.bool "entries bounded at the end" true
    (cache_int line "entries" <= capacity);
  check Alcotest.bool "hits accumulated" true (cache_int line "hits" > 0);
  check Alcotest.bool "eviction pressure was real" true
    (cache_int line "evictions" > 0);
  let top = (Gc.quick_stat ()).Gc.top_heap_words in
  (* 45k further requests may not move the high-water mark by more
     than transient-allocation noise (4M words = 32 MB on 64-bit) *)
  if top - !warm_top > 4_000_000 then
    Alcotest.failf "heap high-water grew %d words across the warm phase"
      (top - !warm_top);
  let s = Serve.summary t in
  check Alcotest.bool "reconciled" true (Serve.reconciled s)

(* The decision cache's whole promise, as counts: replaying a pinned
   mixed corpus on a warm server answers every cacheable request
   (validate, diff, coverage) from the cache — zero misses — and so
   never reaches chain validation: zero [Chain.verify_cert] lookups.
   A frozen clock keeps every deadline open, so no answer is a
   timeout that would re-execute. *)
let test_warm_replay_from_cache () =
  let module BP = Tangled_pki.Blueprint in
  let module Authority = Tangled_x509.Authority in
  let module Chain = Tangled_validation.Chain in
  let module Prng = Tangled_util.Prng in
  let u = (world ()).Pipeline.universe in
  let rng = Prng.create 424243 in
  let chains =
    Array.map
      (fun (r : BP.root) ->
        Tangled_util.Hex.encode
          (Authority.issue_leaf ~bits:384 ~digest:Tangled_hash.Digest_kind.SHA1
             rng ~parent:r.BP.authority ~dns_names:[ "replay.example" ]
             (Tangled_x509.Dn.make "replay.example"))
            .Tangled_x509.Certificate.raw)
      (Array.sub u.BP.roots 0 8)
  in
  let stores = [| "aosp44"; "aosp42"; "mozilla"; "ios7"; "handset:1" |] in
  (* (cacheable, frame) pairs *)
  let draws =
    List.init 300 (fun i ->
        let id = ("id", J.Int i) in
        match Prng.int rng 100 with
        | k when k < 60 ->
            ( true,
              frame
                [ id; ("op", J.String "validate");
                  ("store", J.String (Prng.choose rng stores));
                  ("chain", J.List [ J.String (Prng.choose rng chains) ]) ] )
        | k when k < 80 ->
            ( true,
              frame
                [ id; ("op", J.String "diff");
                  ("store", J.String (Prng.choose rng stores));
                  ("baseline", J.String "aosp44") ] )
        | k when k < 90 ->
            ( true,
              frame
                [ id; ("op", J.String "coverage");
                  ("root", J.String u.BP.roots.(Prng.int rng 16).BP.display_name) ] )
        | k when k < 95 -> (false, frame [ id; ("op", J.String "stores") ])
        | _ -> (false, health i))
  in
  let corpus = List.map snd draws in
  let cacheable = List.length (List.filter fst draws) in
  let config =
    { Serve.default_config with Serve.queue_capacity = 512; clock = (fun () -> 0.0) }
  in
  let t = server ~config () in
  let replay () =
    List.iter
      (fun r ->
        if status_of r <> Some "ok" then Alcotest.failf "non-ok response: %s" r)
      (Serve.serve_burst t corpus)
  in
  let counts () =
    let hits, misses =
      match Serve.cache_stats t with
      | Some s -> (s.Tangled_cache.Cache.hits, s.Tangled_cache.Cache.misses)
      | None -> (0, 0)
    in
    let vh, vm = Chain.verify_cache_stats () in
    (hits, misses, vh + vm)
  in
  replay ();
  let h0, m0, v0 = counts () in
  replay ();
  let h1, m1, v1 = counts () in
  check Alcotest.int "every cacheable request hits" cacheable (h1 - h0);
  check Alcotest.int "no misses" 0 (m1 - m0);
  check Alcotest.int "no chain verifications" 0 (v1 - v0)

(* a rejected reload must leave every observable — snapshot epoch,
   store sizes and count, cached decisions and their counters — exactly
   as it found them: the cache epoch rolls on accepted reloads only *)
let test_rejected_reload_preserves_cache () =
  let doc = Export.stores_jsonl (world ()) in
  let config = { Serve.default_config with Serve.max_frame_bytes = 1 lsl 23 } in
  let t = server ~config () in
  (* warm the decision cache: a miss then a hit on the same diff *)
  let diff id =
    frame [ ("id", J.Int id); ("op", J.String "diff");
            ("store", J.String "mozilla") ]
  in
  List.iter
    (fun f ->
      match Serve.serve_burst t [ f ] with
      | [ r ] ->
          check (Alcotest.option Alcotest.string) "warmup ok" (Some "ok")
            (status_of r)
      | _ -> Alcotest.fail "expected one response")
    [ diff 1; diff 2 ];
  let before = stores_response t in
  check Alcotest.bool "cache warm before the reload" true
    (cache_int before "hits" > 0 && cache_int before "entries" > 0);
  (* a truncated payload is rejected *)
  let poisoned = String.sub doc 0 (String.length doc - 40) in
  (match
     Serve.serve_burst t
       [ frame [ ("id", J.Int 3); ("op", J.String "reload");
                 ("payload", J.String poisoned) ] ]
   with
  | [ r ] ->
      check (Alcotest.option Alcotest.string) "reload rejected"
        (Some "update-rejected") (error_label r)
  | _ -> Alcotest.fail "expected one response");
  (* the whole stores response — epoch, sizes, certificate count and
     cache statistics — is byte-identical to before the attempt *)
  check Alcotest.string "stores response byte-identical" before
    (stores_response t);
  (* and an accepted reload does roll the cache epoch *)
  (match
     Serve.serve_burst t
       [ frame [ ("id", J.Int 4); ("op", J.String "reload");
                 ("payload", J.String doc) ] ]
   with
  | [ r ] ->
      check (Alcotest.option Alcotest.string) "clean reload ok" (Some "ok")
        (status_of r)
  | _ -> Alcotest.fail "expected one response");
  let after = stores_response t in
  check Alcotest.int "cache epoch rolled" 2 (cache_int after "epoch");
  check Alcotest.int "cached decisions invalidated" 0 (cache_int after "entries")

(* --- unit: graceful shutdown ------------------------------------------- *)

let test_drain_completes_in_flight () =
  let t = server () in
  let responses =
    Serve.serve_burst t
      [ frame [ ("id", J.Int 1); ("op", J.String "drain") ]; health 2 ]
  in
  (match List.map status_of responses with
  | [ Some "ok"; Some "ok" ] -> ()
  | sts ->
      Alcotest.failf "in-flight frame not completed: %s"
        (String.concat ","
           (List.map (function Some s -> s | None -> "?") sts)));
  check Alcotest.bool "now draining" true (Serve.draining t);
  (* late arrivals are refused with a typed response, never dropped *)
  match Serve.serve_burst t [ health 3; health 4 ] with
  | [ r1; r2 ] ->
      check (Alcotest.option Alcotest.string) "late refused" (Some "draining")
        (status_of r1);
      check (Alcotest.option Alcotest.string) "late refused" (Some "draining")
        (status_of r2);
      let s = Serve.summary t in
      check Alcotest.int "refused counted" 2 s.Serve.refused;
      check Alcotest.bool "reconciled" true (Serve.reconciled s)
  | _ -> Alcotest.fail "expected two responses"

(* [serve_channel] over a file of [frames]: its totals and every line
   it wrote *)
let serve_file frames =
  let path = Filename.temp_file "serve_test" ".jsonl" in
  Export.write_text path (String.concat "\n" frames ^ "\n");
  let out_path = Filename.temp_file "serve_test" ".out" in
  let ic = open_in path and oc = open_out out_path in
  let s = Serve.serve_channel (server ()) ic oc in
  close_in ic;
  close_out oc;
  let out = In_channel.with_open_bin out_path In_channel.input_all in
  Sys.remove path;
  Sys.remove out_path;
  (s, List.filter (fun l -> l <> "") (String.split_on_char '\n' out))

let test_serve_channel_eof_drains () =
  let s, lines = serve_file [ health 1; health 2 ] in
  check Alcotest.int "both served" 2 s.Serve.seen;
  check Alcotest.int "both answered" 2 s.Serve.answered;
  check Alcotest.bool "EOF drained" true s.Serve.drained;
  check Alcotest.bool "reconciled" true (Serve.reconciled s);
  (* the stream ends with the summary frame *)
  check Alcotest.int "two responses + summary" 3 (List.length lines);
  check (Alcotest.option Alcotest.string) "summary frame last"
    (Some "summary") (status_of (List.nth lines 2))

(* A drain and 40 more frames arrive in one read.  The first 32-frame
   burst (the drain and 31 frames in flight with it) is answered; the
   9 frames already read past it are refused as draining, not dropped,
   before the summary. *)
let test_serve_channel_drain_refuses_queued () =
  let s, lines =
    serve_file
      (frame [ ("id", J.Int 0); ("op", J.String "drain") ]
      :: List.init 40 (fun i -> health (i + 1)))
  in
  check Alcotest.int "41 responses + summary" 42 (List.length lines);
  check
    Alcotest.(list (option string))
    "in flight answered, queued refused, then the summary"
    (List.init 32 (fun _ -> Some "ok")
    @ List.init 9 (fun _ -> Some "draining")
    @ [ Some "summary" ])
    (List.map status_of lines);
  check Alcotest.int "every frame seen" 41 s.Serve.seen;
  check Alcotest.int "queued frames refused" 9 s.Serve.refused;
  check Alcotest.bool "drained" true s.Serve.drained;
  check Alcotest.bool "reconciled" true (Serve.reconciled s)

(* An interactive client over a pipe: each frame must be answered while
   the pipe stays open, not after [batch] frames or EOF pile up.  Two
   frames plus a partial third go in one write; the third is answered
   once its newline arrives.  Closing the pipe then drains the server. *)
let test_serve_channel_interactive () =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let t = server () in
  let server_ic = Unix.in_channel_of_descr req_r in
  let server_oc = Unix.out_channel_of_descr resp_w in
  let served =
    Domain.spawn (fun () ->
        let s = Serve.serve_channel t server_ic server_oc in
        close_out server_oc;
        s)
  in
  let client = Unix.out_channel_of_descr req_w in
  let send s =
    output_string client s;
    flush client
  in
  (* raw reads, so select never misses bytes a channel buffered *)
  let inbox = Buffer.create 256 and chunk = Bytes.create 4096 in
  let read_some timeout =
    match Unix.select [ resp_r ] [] [] timeout with
    | [], _, _ -> false
    | _ ->
        let k = Unix.read resp_r chunk 0 (Bytes.length chunk) in
        Buffer.add_subbytes inbox chunk 0 k;
        k > 0
  in
  let take_lines n =
    match String.split_on_char '\n' (Buffer.contents inbox) with
    | parts when List.length parts > n ->
        let lines = List.filteri (fun i _ -> i < n) parts in
        let rest = String.concat "\n" (List.filteri (fun i _ -> i >= n) parts) in
        Buffer.clear inbox;
        Buffer.add_string inbox rest;
        Some lines
    | _ -> None
  in
  (* [n] response lines within 5 s, or None *)
  let await n =
    let deadline = Unix.gettimeofday () +. 5.0 in
    let rec go () =
      match take_lines n with
      | Some _ as lines -> lines
      | None ->
          let left = deadline -. Unix.gettimeofday () in
          if left > 0.0 && read_some left then go () else None
    in
    go ()
  in
  send (health 1 ^ "\n");
  let first = await 1 in
  let second =
    match first with
    | None -> None
    | Some _ ->
        send (health 2 ^ "\n" ^ health 3 ^ "\n" ^ String.sub (health 4) 0 5);
        await 2
  in
  let third =
    match second with
    | None -> None
    | Some _ ->
        let h4 = health 4 in
        send (String.sub h4 5 (String.length h4 - 5) ^ "\n");
        await 1
  in
  (* EOF: the server drains whether or not it answered in time *)
  close_out client;
  let s = Domain.join served in
  while read_some 5.0 do () done;
  let rest = Buffer.contents inbox in
  Unix.close resp_r;
  close_in server_ic;
  let statuses = function
    | Some lines -> List.map status_of lines
    | None -> Alcotest.fail "no response within 5 s while the pipe stayed open"
  in
  check Alcotest.(list (option string)) "one frame, one reply" [ Some "ok" ] (statuses first);
  check Alcotest.(list (option string)) "two frames in one write" [ Some "ok"; Some "ok" ]
    (statuses second);
  check Alcotest.(list (option string)) "partial frame completed" [ Some "ok" ] (statuses third);
  check Alcotest.int "all four seen" 4 s.Serve.seen;
  check Alcotest.bool "EOF drained" true s.Serve.drained;
  check Alcotest.bool "reconciled" true (Serve.reconciled s);
  check (Alcotest.option Alcotest.string) "summary frame after EOF" (Some "summary")
    (status_of (String.trim rest))

(* --- unit: fault severity ---------------------------------------------- *)

let test_fault_classification () =
  let expect =
    [
      (Fault.Bit_flip, Fault.Transient);
      (Fault.Truncate, Fault.Transient);
      (Fault.Drop, Fault.Transient);
      (Fault.Duplicate, Fault.Transient);
      (Fault.Missing_field, Fault.Permanent);
      (Fault.Type_confusion, Fault.Permanent);
      (Fault.Clock_skew, Fault.Permanent);
      (Fault.Identity_conflict, Fault.Permanent);
    ]
  in
  check Alcotest.int "total over all kinds" (List.length Fault.all_kinds)
    (List.length expect);
  let severity =
    Alcotest.testable
      (fun ppf s ->
        Format.pp_print_string ppf
          (match s with Fault.Transient -> "transient" | Fault.Permanent -> "permanent"))
      ( = )
  in
  List.iter
    (fun (kind, expected) ->
      check severity ("classify " ^ Fault.kind_to_string kind) expected
        (Fault.classify kind))
    expect

(* --- unit: protocol v2 (the ct-* ops) ----------------------------------- *)

let result_member line =
  match J.parse line with
  | Ok json -> (
      match J.member "result" json with
      | Some r -> r
      | None -> Alcotest.fail "response lacks a result")
  | Error e -> Alcotest.fail e

let result_int result field =
  match J.member field result with
  | Some (J.Int v) -> v
  | _ -> Alcotest.failf "result lacks int %s" field

let result_str result field =
  match J.member field result with
  | Some (J.String s) -> s
  | _ -> Alcotest.failf "result lacks string %s" field

let result_hex_list result field =
  match J.member field result with
  | Some (J.List items) ->
      List.map
        (function
          | J.String s -> (
              match Tangled_util.Hex.decode_opt s with
              | Some raw -> raw
              | None -> Alcotest.failf "%s element is not hex" field)
          | _ -> Alcotest.failf "%s element is not a string" field)
        items
  | _ -> Alcotest.failf "result lacks list %s" field

let test_ct_inclusion_roundtrip () =
  (* a served proof must verify through the pure Proof API against the
     leaf bytes re-read from the server's own fleet *)
  let module Ct = Tangled_ct.Log in
  let module Proof = Tangled_ct.Proof in
  let module Fleet = Tangled_ct.Fleet in
  let t = server () in
  let fleet =
    match Serve.ct_fleet t with
    | Some f -> f
    | None -> Alcotest.fail "default server has no fleet"
  in
  Array.iter
    (fun (e : Fleet.entry) ->
      let log_name = Ct.name e.Fleet.log in
      let n = Ct.size e.Fleet.log in
      let i = n / 2 in
      match
        Serve.serve_burst t
          [
            frame
              [ ("id", J.String ("p-" ^ log_name));
                ("op", J.String "ct-inclusion"); ("log", J.String log_name);
                ("index", J.Int i) ];
          ]
      with
      | [ r ] ->
          check (Alcotest.option Alcotest.string) "inclusion ok" (Some "ok")
            (status_of r);
          let result = result_member r in
          check Alcotest.int "tree_size is the log size" n
            (result_int result "tree_size");
          let proof = result_hex_list result "proof" in
          let root =
            match Tangled_util.Hex.decode_opt (result_str result "root") with
            | Some raw -> raw
            | None -> Alcotest.fail "root is not hex"
          in
          let leaf =
            match Fleet.leaf_der fleet e i with
            | Some d -> d
            | None -> Alcotest.fail "leaf_der out of range"
          in
          check Alcotest.bool
            (Printf.sprintf "%s proof verifies" log_name)
            true
            (Proof.verify_inclusion ~leaf ~index:i ~tree_size:n ~proof ~root)
      | _ -> Alcotest.fail "expected one response")
    (Fleet.entries fleet)

let test_ct_consistency_roundtrip () =
  let module Ct = Tangled_ct.Log in
  let module Proof = Tangled_ct.Proof in
  let module Fleet = Tangled_ct.Fleet in
  let t = server () in
  let fleet =
    match Serve.ct_fleet t with Some f -> f | None -> Alcotest.fail "no fleet"
  in
  let e = (Fleet.entries fleet).(0) in
  let n = Ct.size e.Fleet.log in
  let m = max 1 (n / 2) in
  match
    Serve.serve_burst t
      [
        frame
          [ ("id", J.Int 1); ("op", J.String "ct-consistency");
            ("log", J.String "ct0"); ("first", J.Int m); ("second", J.Int n) ];
      ]
  with
  | [ r ] ->
      check (Alcotest.option Alcotest.string) "consistency ok" (Some "ok")
        (status_of r);
      let result = result_member r in
      let proof = result_hex_list result "proof" in
      let root_of field =
        match Tangled_util.Hex.decode_opt (result_str result field) with
        | Some raw -> raw
        | None -> Alcotest.failf "%s is not hex" field
      in
      check Alcotest.bool "served consistency verifies" true
        (Proof.verify_consistency ~first:m ~second:n
           ~first_root:(root_of "first_root") ~second_root:(root_of "second_root")
           ~proof)
  | _ -> Alcotest.fail "expected one response"

let test_ct_typed_errors () =
  let t = server () in
  let expect_label label fields =
    match Serve.serve_burst t [ frame fields ] with
    | [ r ] ->
        check (Alcotest.option Alcotest.string) label (Some label) (error_label r)
    | _ -> Alcotest.fail "expected one response"
  in
  expect_label "unknown-log"
    [ ("id", J.Int 1); ("op", J.String "ct-inclusion");
      ("log", J.String "ct99"); ("index", J.Int 0) ];
  expect_label "out-of-range"
    [ ("id", J.Int 2); ("op", J.String "ct-inclusion");
      ("log", J.String "ct0"); ("index", J.Int (-1)) ];
  expect_label "out-of-range"
    [ ("id", J.Int 3); ("op", J.String "ct-inclusion");
      ("log", J.String "ct0"); ("index", J.Int 0);
      ("tree_size", J.Int 100_000_000) ];
  expect_label "out-of-range"
    [ ("id", J.Int 4); ("op", J.String "ct-consistency");
      ("log", J.String "ct0"); ("first", J.Int 0); ("second", J.Int 1) ];
  expect_label "unknown-store"
    [ ("id", J.Int 5); ("op", J.String "ct-visibility");
      ("store", J.String "waterfox") ];
  (* a malformed ct frame lands in the ingest taxonomy like any other *)
  (match
     Serve.serve_burst t
       [ frame [ ("id", J.Int 6); ("op", J.String "ct-inclusion");
                 ("log", J.String "ct0"); ("index", J.String "zero") ] ]
   with
  | [ r ] ->
      check (Alcotest.option Alcotest.string) "type mismatch quarantined"
        (Some "type-mismatch") (error_label r)
  | _ -> Alcotest.fail "expected one response");
  let s = Serve.summary t in
  check Alcotest.bool "reconciled" true (Serve.reconciled s)

let test_ct_visibility_and_health () =
  let t = server () in
  (* ct-visibility answers the report's row for a store *)
  (match
     Serve.serve_burst t
       [ frame [ ("id", J.Int 1); ("op", J.String "ct-visibility");
                 ("store", J.String "aosp44") ] ]
   with
  | [ r ] ->
      check (Alcotest.option Alcotest.string) "visibility ok" (Some "ok")
        (status_of r);
      let result = result_member r in
      let roots = result_int result "roots" in
      let logged = result_int result "logged" in
      let dark = result_int result "dark" in
      check Alcotest.int "logged + dark = roots" roots (logged + dark);
      check Alcotest.bool "store non-empty" true (roots > 0)
  | _ -> Alcotest.fail "expected one response");
  (* health and stores carry per-log tree size and head hash *)
  List.iter
    (fun op ->
      match
        Serve.serve_burst t [ frame [ ("id", J.Int 2); ("op", J.String op) ] ]
      with
      | [ r ] -> (
          let result = result_member r in
          match J.member "ct" result with
          | Some ct -> (
              match J.member "logs" ct with
              | Some (J.List logs) ->
                  check Alcotest.int (op ^ " lists every log") 3
                    (List.length logs);
                  List.iter
                    (fun l ->
                      let size =
                        match J.member "tree_size" l with
                        | Some (J.Int n) -> n
                        | _ -> Alcotest.fail "log entry lacks tree_size"
                      in
                      let head =
                        match J.member "head" l with
                        | Some (J.String h) -> h
                        | _ -> Alcotest.fail "log entry lacks head"
                      in
                      check Alcotest.bool "tree non-empty" true (size > 0);
                      check Alcotest.int "head is hex sha256" 64
                        (String.length head))
                    logs
              | _ -> Alcotest.failf "%s ct member lacks logs" op)
          | None -> Alcotest.failf "%s response lacks ct member" op)
      | _ -> Alcotest.fail "expected one response")
    [ "health"; "stores" ]

let test_ct_proofs_cached () =
  (* the second identical ct-inclusion answers from the decision cache *)
  let t = server () in
  let req id =
    frame
      [ ("id", J.Int id); ("op", J.String "ct-inclusion");
        ("log", J.String "ct0"); ("index", J.Int 1) ]
  in
  let before = cache_int (stores_response t) "hits" in
  (match Serve.serve_burst t [ req 1; req 2 ] with
  | [ r1; r2 ] ->
      check (Alcotest.option Alcotest.string) "first ok" (Some "ok")
        (status_of r1);
      check (Alcotest.option Alcotest.string) "second ok" (Some "ok")
        (status_of r2)
  | _ -> Alcotest.fail "expected two responses");
  let after = cache_int (stores_response t) "hits" in
  check Alcotest.bool "proof served from cache" true (after > before)

(* Serve is the only source of proofs for the heads [report ct] prints,
   so its fleet must be the report's: the same visibility rows for the
   six official stores, and per-log heads equal to the fleet
   [Ct_report.compute] builds from the world's seed. *)
let test_ct_fleet_is_reported () =
  let module BP = Tangled_pki.Blueprint in
  let module Rs = Tangled_store.Root_store in
  let module Fleet = Tangled_ct.Fleet in
  let module Ct = Tangled_ct.Log in
  let module Ct_report = Tangled_core.Ct_report in
  let w = world () in
  let t = server () in
  let _, rows = Ct_report.csv (Ct_report.compute w) in
  let shorts = [ "aosp41"; "aosp42"; "aosp43"; "aosp44"; "mozilla"; "ios7" ] in
  check Alcotest.int "one report row per official store" (List.length shorts)
    (List.length rows);
  List.iteri
    (fun i short ->
      (* serve takes short names, the report's CSV display names *)
      let display =
        match BP.store_of_name w.Pipeline.universe short with
        | Some store -> Rs.name store
        | None -> Alcotest.failf "no official store %s" short
      in
      let row =
        match List.find_opt (fun r -> List.hd r = display) rows with
        | Some (_ :: roots :: accepted :: logged :: dark :: _) ->
            [ roots; accepted; logged; dark ]
        | _ -> Alcotest.failf "no report row for %s" display
      in
      match
        Serve.serve_burst t
          [ frame [ ("id", J.Int i); ("op", J.String "ct-visibility");
                    ("store", J.String short) ] ]
      with
      | [ r ] ->
          let result = result_member r in
          check
            Alcotest.(list string)
            (short ^ " row matches the report") row
            (List.map
               (fun f -> string_of_int (result_int result f))
               [ "roots"; "accepted"; "logged"; "dark" ])
      | _ -> Alcotest.fail "expected one response")
    shorts;
  let fleet =
    Fleet.build ~seed:w.Pipeline.config.Pipeline.seed w.Pipeline.universe
      w.Pipeline.notary
  in
  let heads =
    match Serve.serve_burst t [ health 7 ] with
    | [ r ] -> (
        match Option.bind (J.member "ct" (result_member r)) (J.member "logs") with
        | Some (J.List logs) ->
            List.map
              (fun l ->
                match (J.member "log" l, J.member "tree_size" l, J.member "head" l) with
                | Some (J.String name), Some (J.Int size), Some (J.String head) ->
                    (name, size, head)
                | _ -> Alcotest.fail "log entry lacks log/tree_size/head")
              logs
        | _ -> Alcotest.fail "health lacks ct logs")
    | _ -> Alcotest.fail "expected one response"
  in
  check
    Alcotest.(list (triple string int string))
    "served heads are the report fleet's"
    (Array.to_list
       (Array.map
          (fun (e : Fleet.entry) ->
            (Ct.name e.Fleet.log, Ct.size e.Fleet.log, Ct.head_hex e.Fleet.log))
          (Fleet.entries fleet)))
    heads

(* The timeout answer echoes the frame's own [deadline_ms], byte for
   byte: 1001 ms is one of the values a round trip through float
   seconds (ms / 1000 * 1000, truncated) would bring back 1 short. *)
let test_timeout_echoes_deadline () =
  let now = ref 0.0 in
  let clock () = now := !now +. 2.0; !now in
  let t = server ~config:{ Serve.default_config with Serve.clock } () in
  match
    Serve.serve_burst t
      [ frame [ ("id", J.Int 1); ("op", J.String "diff");
                ("store", J.String "mozilla"); ("deadline_ms", J.Int 1001) ] ]
  with
  | [ r ] ->
      check (Alcotest.option Alcotest.string) "timed out" (Some "timeout")
        (status_of r);
      check (Alcotest.option Alcotest.int) "deadline_ms echoed" (Some 1001)
        (match J.parse r with
        | Ok json -> (
            match J.member "deadline_ms" json with Some (J.Int ms) -> Some ms | _ -> None)
        | Error _ -> None)
  | _ -> Alcotest.fail "expected one response"

(* A reload that fails — a poisoned payload, a permanent fault on its
   access, a transient fault past the retry budget, or a deadline blown
   under a stepping clock — leaves the [stores] answer (epoch, sizes,
   certificate count, cache statistics, every CT head) and the cache's
   own statistics byte-identical.  A transient fault that recovers
   applies the reload exactly once. *)
let test_reload_under_faults () =
  let doc = Export.stores_jsonl (world ()) in
  let armed = ref None and stepping = ref false and now = ref 0.0 in
  let config =
    {
      Serve.default_config with
      Serve.max_frame_bytes = 1 lsl 23;
      clock = (fun () -> if !stepping then now := !now +. 1.0; !now);
      fault_hook =
        (fun ~seq:_ ~attempt ->
          match !armed with
          | Some (kind, persists) when attempt < persists -> Some kind
          | _ -> None);
    }
  in
  let t = server ~config () in
  let diff id =
    frame [ ("id", J.Int id); ("op", J.String "diff"); ("store", J.String "mozilla") ]
  in
  ignore (Serve.serve_burst t [ diff 1; diff 2 ]);
  let observe () = (stores_response t, Serve.cache_stats t) in
  let reload ?fault ?(step = false) payload =
    armed := fault;
    stepping := step;
    let r =
      Serve.serve_burst t
        [ frame [ ("id", J.Int 3); ("op", J.String "reload");
                  ("payload", J.String payload) ] ]
    in
    armed := None;
    stepping := false;
    match r with [ r ] -> r | _ -> Alcotest.fail "expected one response"
  in
  let before = observe () in
  check Alcotest.bool "cache warm" true
    (match snd before with Some s -> s.Tangled_cache.Cache.hits > 0 | None -> false);
  let poisoned = String.sub doc 0 (String.length doc - 40) in
  List.iter
    (fun (name, expect, attempt) ->
      let response = attempt () in
      let got =
        match error_label response with Some l -> Some l | None -> status_of response
      in
      check (Alcotest.option Alcotest.string) name (Some expect) got;
      check Alcotest.bool (name ^ ": nothing moved") true (observe () = before))
    [
      ("poisoned payload", "update-rejected", fun () -> reload poisoned);
      ("permanent fault", "poisoned-request",
       fun () -> reload ~fault:(Fault.Missing_field, max_int) doc);
      ("retries exhausted", "fault-transient",
       fun () -> reload ~fault:(Fault.Bit_flip, max_int) doc);
      ("deadline blown", "timeout", fun () -> reload ~step:true doc);
    ];
  let epoch = (Serve.summary t).Serve.epoch in
  check (Alcotest.option Alcotest.string) "recovered reload applies" (Some "ok")
    (status_of (reload ~fault:(Fault.Truncate, 2) doc));
  let s = Serve.summary t in
  check Alcotest.int "epoch advanced once" (epoch + 1) s.Serve.epoch;
  check Alcotest.int "one reload accepted" 1 s.Serve.reloads_accepted;
  check Alcotest.int "one reload rejected" 1 s.Serve.reloads_rejected;
  check Alcotest.bool "reconciled" true (Serve.reconciled s);
  (* a trace exported after serving — serve spans, [serve.latency.*]
     observations, the poisoned request's quarantine event — validates *)
  let module Obs = Tangled_obs.Obs in
  check Alcotest.(result unit string) "trace validates" (Ok ())
    (Obs.validate_trace (Obs.trace_jsonl ()))

(* --- against the reference model ----------------------------------------- *)

module Model = Serve_model

(* the pools of frames the model knows, with every pure read answered
   once by an uncached, frozen-clock server *)
let model_pools =
  lazy
    (let config =
       { Serve.default_config with Serve.cache_capacity = 0; clock = (fun () -> 0.0) }
     in
     Model.pools ~oracle:(server ~config ()) (world ()))

let gen_frame (p : Model.pools) =
  let open QCheck.Gen in
  let pick a = int_bound (Array.length a - 1) in
  let cmd =
    frequency
      [
        (10, map (fun i -> Model.Read i) (pick p.Model.reads));
        (2, return Model.Stores);
        (2, return Model.Health);
        (2, map (fun i -> Model.Reload i) (pick p.Model.payloads));
        (1, return Model.Drain);
        (2, map (fun i -> Model.Malformed i) (pick p.Model.malformed));
      ]
  in
  let fault =
    frequency
      [
        (12, return None);
        (1, map (fun n -> Some (Model.Recovers n)) (int_range 1 3));
        (1, return (Some Model.Exhausts));
        (1, return (Some Model.Poisons));
      ]
  in
  map2 (fun cmd fault -> { Model.cmd; fault }) cmd fault

let show_frame (f : Model.frame) =
  (match f.Model.cmd with
  | Model.Read i -> Printf.sprintf "read%d" i
  | Stores -> "stores"
  | Health -> "health"
  | Reload i -> Printf.sprintf "reload%d" i
  | Drain -> "drain"
  | Malformed i -> Printf.sprintf "malformed%d" i)
  ^
  match f.Model.fault with
  | None -> ""
  | Some (Model.Recovers n) -> Printf.sprintf "+recovers%d" n
  | Some Exhausts -> "+exhausts"
  | Some Poisons -> "+poisons"

(* a cache capacity and a sequence of bursts; a burst runs from one
   frame to beyond the queue capacity of 4 *)
let arb_model_run =
  let open QCheck in
  make
    (fun st ->
      let frame = gen_frame (Lazy.force model_pools) in
      Gen.(
        pair (oneofl [ 0; 1; 16384 ])
          (list_size (int_range 1 6) (list_size (int_range 1 7) frame)))
        st)
    ~print:(fun (capacity, bursts) ->
      Printf.sprintf "cache %d: %s" capacity
        (String.concat " | "
           (List.map (fun b -> String.concat " " (List.map show_frame b)) bursts)))
    ~shrink:Shrink.(pair nil (list ~shrink:(fun b -> list b)))

(* the process-global [cache] member of a stores/health answer, masked *)
let mask_cache line =
  match J.parse line with
  | Ok (J.Obj fields)
    when Option.bind (List.assoc_opt "result" fields) (J.member "cache") <> None ->
      let mask = List.map (function "cache", _ -> ("cache", J.Null) | kv -> kv) in
      J.to_string
        (J.Obj (List.map (function "result", J.Obj r -> ("result", J.Obj (mask r)) | kv -> kv) fields))
  | _ -> line

(* a health answer's counters add up (it runs only before a drain, so
   nothing is refused yet) *)
let health_reconciles line =
  match Result.map (J.member "result") (J.parse line) with
  | Ok (Some result) when J.member "protocol" result <> None ->
      let n f = match J.member f result with Some (J.Int v) -> v | _ -> -1 in
      n "seen"
      = n "answered" + n "typed_errors" + n "timed_out" + n "shed" + n "quarantined"
  | _ -> true

(* Random bursts through the model and a fresh server: one response per
   frame, each byte-identical to the model's (cache member masked), the
   same control totals and quarantine records after every burst, and
   every health answer reconciled.  The cache must be invisible. *)
let prop_serve_matches_model =
  QCheck.Test.make ~name:"serve answers as the reference model" ~count:60 arb_model_run
    (fun (cache_capacity, bursts) ->
      let pools = Lazy.force model_pools in
      let config =
        { Serve.default_config with
          Serve.queue_capacity = 4; cache_capacity; clock = (fun () -> 0.0) }
      in
      let m = Model.create pools config in
      let t = server ~config:{ config with Serve.fault_hook = Model.hook m } () in
      let next_id = ref 0 in
      List.iteri
        (fun b frames ->
          let frames = List.map (fun f -> incr next_id; (!next_id, f)) frames in
          let expected = Model.burst m frames in
          let actual = Serve.serve_burst t (List.map (Model.render pools) frames) in
          if List.length actual <> List.length frames then
            QCheck.Test.fail_reportf "burst %d: %d responses to %d frames" b
              (List.length actual) (List.length frames);
          List.iter2
            (fun e a ->
              if mask_cache a <> e then
                QCheck.Test.fail_reportf "burst %d:@.model  %s@.server %s" b e (mask_cache a);
              if not (health_reconciles a) then
                QCheck.Test.fail_reportf "burst %d: health does not reconcile: %s" b a)
            expected actual;
          let s = Serve.summary t in
          if s <> m.Model.totals then
            QCheck.Test.fail_reportf "burst %d: totals@.model@.%s@.server@.%s" b
              (Serve.render_summary m.Model.totals) (Serve.render_summary s);
          if Serve.quarantine t <> List.rev m.Model.quarantine then
            QCheck.Test.fail_reportf "burst %d: quarantine records differ" b;
          if List.length (Serve.quarantine t) <> s.Serve.quarantined then
            QCheck.Test.fail_reportf "burst %d: %d quarantine records, %d counted" b
              (List.length (Serve.quarantine t)) s.Serve.quarantined)
        bursts;
      true)

(* 3 000 malformed frames, in bursts the queue admits whole: the server
   keeps only the newest 1 024 quarantine records (frames 1 977 to
   3 000), and its totals still count every one. *)
let test_quarantine_bounded () =
  let t = server () in
  (* 60 bursts of 50, under the default queue capacity of 64 *)
  for b = 0 to 59 do
    ignore
      (Serve.serve_burst t
         (List.init 50 (fun i -> Printf.sprintf "{bad %d" ((50 * b) + i))))
  done;
  let records = Serve.quarantine t in
  check Alcotest.int "records kept" 1024 (List.length records);
  check Alcotest.(list int) "the newest, oldest first"
    (List.init 1024 (fun i -> 1977 + i))
    (List.map (fun (q : Ingest.quarantined) -> q.Ingest.line) records);
  let s = Serve.summary t in
  check Alcotest.int "every frame counted" 3000 s.Serve.quarantined;
  check Alcotest.bool "reconciled" true (Serve.reconciled s)

let suite =
  [
    Alcotest.test_case "basic ops answer and echo ids" `Quick test_basic_ops;
    Alcotest.test_case "schema violations quarantined under the taxonomy"
      `Quick test_schema_violations_quarantined;
    Alcotest.test_case "overload sheds explicitly" `Quick
      test_overload_sheds_explicitly;
    Alcotest.test_case "deadlines yield typed timeouts" `Quick
      test_deadline_times_out;
    Alcotest.test_case "transient faults retry with backoff" `Quick
      test_transient_fault_retries_then_succeeds;
    Alcotest.test_case "retry budget exhaustion is a typed error" `Quick
      test_transient_fault_exhausts_budget;
    Alcotest.test_case "permanent faults poison the request" `Quick
      test_permanent_fault_quarantines;
    Alcotest.test_case "reload degrades gracefully" `Quick
      test_reload_good_and_poisoned;
    Alcotest.test_case "50k-request warm serve stays bounded" `Slow
      test_warm_serve_cache_bounded;
    Alcotest.test_case "warm replay answers from the cache alone" `Quick
      test_warm_replay_from_cache;
    Alcotest.test_case "rejected reload preserves cache and corpus" `Quick
      test_rejected_reload_preserves_cache;
    Alcotest.test_case "drain completes in-flight work" `Quick
      test_drain_completes_in_flight;
    Alcotest.test_case "serve_channel drains on EOF" `Quick
      test_serve_channel_eof_drains;
    Alcotest.test_case "serve_channel answers an open pipe" `Quick
      test_serve_channel_interactive;
    Alcotest.test_case "fault severity classification" `Quick
      test_fault_classification;
    Alcotest.test_case "v2: served inclusion proofs verify" `Quick
      test_ct_inclusion_roundtrip;
    Alcotest.test_case "v2: served consistency proofs verify" `Quick
      test_ct_consistency_roundtrip;
    Alcotest.test_case "v2: ct ops answer typed errors" `Quick
      test_ct_typed_errors;
    Alcotest.test_case "v2: visibility rows and per-log health" `Quick
      test_ct_visibility_and_health;
    Alcotest.test_case "v2: proofs ride the decision cache" `Quick
      test_ct_proofs_cached;
    qtest prop_serve_total;
    qtest prop_malformed_quarantined;
    Alcotest.test_case "serve_channel refuses frames queued past a drain"
      `Quick test_serve_channel_drain_refuses_queued;
    Alcotest.test_case "v2: the served CT fleet is the reported one" `Quick
      test_ct_fleet_is_reported;
    Alcotest.test_case "timeout echoes the frame's deadline_ms" `Quick
      test_timeout_echoes_deadline;
    Alcotest.test_case "failed reloads leave snapshot, cache and heads" `Quick
      test_reload_under_faults;
    qtest prop_serve_matches_model;
    Alcotest.test_case "quarantine keeps the newest 1 024 records" `Quick
      test_quarantine_bounded;
  ]
