(* Aggregated test runner.  Suites that need the synthetic universe
   share one lazily-built instance (Blueprint.default / Pipeline.quick),
   so the expensive key generation happens once per process. *)

let () =
  Alcotest.run "tangled_mass"
    [
      ("util", Test_util.suite);
      ("cache", Test_cache.suite);
      ("bigint", Test_bigint.suite);
      ("montgomery", Test_montgomery.suite);
      ("prime", Test_prime.suite);
      ("hash", Test_hash.suite);
      ("rsa", Test_rsa.suite);
      ("asn1", Test_asn1.suite);
      ("x509", Test_x509.suite);
      ("arena", Test_arena.suite);
      ("store", Test_store.suite);
      ("validation", Test_validation.suite);
      ("pki", Test_pki.suite);
      ("device", Test_device.suite);
      ("netalyzr", Test_netalyzr.suite);
      ("notary", Test_notary.suite);
      ("tls", Test_tls.suite);
      ("core", Test_core.suite);
      ("extensions", Test_extensions.suite);
      ("fuzz", Test_fuzz.suite);
      ("persistence", Test_persistence.suite);
      ("ingest", Test_ingest.suite);
      ("plotting", Test_plotting.suite);
      ("properties", Test_properties.suite);
      ("engine", Test_engine.suite);
      ("determinism", Test_determinism.suite);
      ("serve", Test_serve.suite);
      ("ct", Test_ct.suite);
      (* last: obs tests reset the process-wide instrumentation state *)
      ("obs", Test_obs.suite);
    ]
