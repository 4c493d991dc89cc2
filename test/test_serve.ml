(* The trust-decision server: total decoding under fuzzed frames, and
   each robustness mechanism — admission control, deadlines,
   retry/backoff, snapshot degradation, drain — pinned by a unit test.
   The full chaos composition is the drill ([serve --drill]); here it
   runs at its pinned seed (fault seed 12, rate 0.08, 600 requests) as
   the end-to-end regression. *)

module Pipeline = Tangled_core.Pipeline
module Export = Tangled_core.Export
module Serve = Tangled_serve.Serve
module Drill = Tangled_serve.Drill
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
  let waits = ref [] in
  let config =
    {
      Serve.default_config with
      Serve.fault_hook =
        (fun ~seq:_ ~attempt -> if attempt < 2 then Some Fault.Truncate else None);
      sleep = (fun s -> waits := s :: !waits);
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
  (* exponential: base, then double *)
  check (Alcotest.list (Alcotest.float 1e-9)) "backoff doubles"
    [ Serve.default_config.Serve.backoff_s;
      2.0 *. Serve.default_config.Serve.backoff_s ]
    (List.rev !waits)

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
  (* reads still answer from the surviving snapshot, and the rejected
     reload's half-built corpus was truncated out of the epoch arena:
     the corpus accounting matches the surviving epoch exactly *)
  let corpus_stats () =
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
                match
                  ( J.member "corpus_certs" result,
                    J.member "corpus_bytes" result )
                with
                | Some (J.Int c), Some (J.Int b) -> (c, b)
                | _ -> Alcotest.fail "stores response lacks corpus accounting")
            | None -> Alcotest.fail "stores response lacks a result")
        | Error e -> Alcotest.fail e)
    | _ -> Alcotest.fail "expected one response"
  in
  let certs, bytes = corpus_stats () in
  check Alcotest.bool "epoch corpus non-empty" true (certs > 0 && bytes > 0);
  (* another poisoned attempt must leave the accounting byte-identical *)
  (match Serve.serve_burst t [ reload 4 poisoned ] with
  | [ r ] ->
      check (Alcotest.option Alcotest.string) "second poison rejected"
        (Some "update-rejected") (error_label r)
  | _ -> Alcotest.fail "expected one response");
  check
    Alcotest.(pair int int)
    "rejected reload retains nothing" (certs, bytes) (corpus_stats ())

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
   corpus accounting, cached decisions and their counters — exactly as
   it found them: the cache epoch rolls on accepted reloads only *)
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
  (* the whole stores response — epoch, sizes, corpus accounting and
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

let test_serve_channel_eof_drains () =
  let path = Filename.temp_file "serve_test" ".jsonl" in
  Export.write_text path (String.concat "\n" [ health 1; health 2 ] ^ "\n");
  let ic = open_in path in
  let out_path = Filename.temp_file "serve_test" ".out" in
  let oc = open_out out_path in
  let t = server () in
  let s = Serve.serve_channel t ic oc in
  close_in ic;
  close_out oc;
  check Alcotest.int "both served" 2 s.Serve.seen;
  check Alcotest.int "both answered" 2 s.Serve.answered;
  check Alcotest.bool "EOF drained" true s.Serve.drained;
  check Alcotest.bool "reconciled" true (Serve.reconciled s);
  (* the stream ends with the summary frame *)
  let lines = ref [] in
  let ic = open_in out_path in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  check Alcotest.int "two responses + summary" 3 (List.length !lines);
  check (Alcotest.option Alcotest.string) "summary frame last"
    (Some "summary") (status_of (List.hd !lines));
  Sys.remove path;
  Sys.remove out_path

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
  List.iter
    (fun (kind, severity) ->
      check Alcotest.string
        ("classify " ^ Fault.kind_to_string kind)
        (Fault.severity_to_string severity)
        (Fault.severity_to_string (Fault.classify kind)))
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
  (* with the fleet disabled every ct op is a typed unknown-log *)
  let t0 = server ~config:{ Serve.default_config with Serve.ct_logs = 0 } () in
  (match
     Serve.serve_burst t0
       [ frame [ ("id", J.Int 7); ("op", J.String "ct-visibility");
                 ("store", J.String "mozilla") ] ]
   with
  | [ r ] ->
      check (Alcotest.option Alcotest.string) "disabled fleet is typed"
        (Some "unknown-log") (error_label r)
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

(* --- the composed drill at a pinned seed ------------------------------- *)

let test_drill_pinned_seed () =
  let o = Drill.run ~seed:12 ~rate:0.08 ~requests:600 (world ()) in
  List.iter
    (fun (name, passed) ->
      check Alcotest.bool ("drill check: " ^ name) true passed)
    o.Drill.checks;
  check Alcotest.bool "drill verdict" true o.Drill.ok;
  check Alcotest.int "no malformed responses" 0 o.Drill.malformed_responses

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
    Alcotest.test_case "chaos drill at pinned seed" `Slow
      test_drill_pinned_seed;
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
  ]
