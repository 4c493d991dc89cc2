module PD = Paper_data
module Prng = Tangled_util.Prng
module Ts = Tangled_util.Timestamp
module Dn = Tangled_x509.Dn
module Authority = Tangled_x509.Authority
module C = Tangled_x509.Certificate
module Rs = Tangled_store.Root_store
module B = Tangled_numeric.Bigint
module Interner = Tangled_engine.Interner
module Parallel = Tangled_engine.Parallel

type root = {
  id : int;
  authority : Authority.t;
  display_name : string;
  in_aosp : PD.android_version list;
  in_mozilla : bool;
  in_ios : bool;
  traffic_weight : float;
  extra : PD.extra_cert option;
  mozilla_variant : C.t option;
}

type t = {
  seed : int;
  key_bits : int;
  roots : root array;
  private_cas : (Authority.t * float) array;
  rooted_authorities : (string * Authority.t) array;
  interceptor : Authority.t;
  aosp : PD.android_version -> Rs.t;
  mozilla : Rs.t;
  ios7 : Rs.t;
  extra_by_id : (string, root) Hashtbl.t;
  interner : Interner.t;
  root_of_id : root option array;
}

(* Composition constants derived in DESIGN.md §4 from Tables 1/3/4.
   Counts of traffic-active roots per sub-population: *)
let shared_41_active = 105 (* of 124; 19 validate nothing *)
let only_41_active = 3 (* of 15; the DoD-style government roots *)
let ios_exclusive_active = 15 (* of 69 *)
let ios_shared_zeros = 5 (* inactive shared roots iOS also carries *)
let ios_only_members = 10 (* AOSP-only roots iOS carries *)
let mozilla_reissued = 13 (* shared roots Mozilla ships re-issued: 130-117 *)
let n_private_cas = 40
let firmaprofesional = "Autoridad de Certificacion Firmaprofesional CIF A62634068"

let zipf_shares n s total =
  let raw = Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) s) in
  let sum = Array.fold_left ( +. ) 0.0 raw in
  Array.map (fun w -> w /. sum *. total) raw

(* A name supply: curated well-known names first, then synthetic. *)
let name_supply rng =
  let next = ref 0 in
  fun () ->
    let i = !next in
    incr next;
    if i < Array.length Ca_names.well_known then Ca_names.well_known.(i)
    else Ca_names.synthetic rng (i - Array.length Ca_names.well_known)

let dn_of_name (cn, o, c) = Dn.make ?o ?c cn

let all_versions = PD.android_versions

let versions_from v =
  let rec drop = function
    | [] -> []
    | x :: rest -> if x = v then x :: rest else drop rest
  in
  drop all_versions

(* A self-signed authority as [build] plans it: its subject and any
   non-default version or validity.  Its serial is [first_serial] plus
   its slot, the order it was planned in. *)
type spec = {
  dn : Dn.t;
  version : int option;
  not_before : Ts.t option;
  not_after : Ts.t option;
}

let first_serial = 101

let build ?(key_bits = 384) ?(jobs = Parallel.default_jobs ()) ~seed () =
  let master = Prng.create seed in
  let rng_keys = Prng.split master "blueprint-keys" in
  let rng_names = Prng.split master "blueprint-names" in
  let fresh_name = name_supply rng_names in
  (* Planning draws every name and gives each self-signed authority a
     slot; one parallel batch then makes all the authorities, and each
     planned root (a draft, waiting for its authority) is finished. *)
  let specs = Queue.create () in
  let plan ?version ?not_before ?not_after dn =
    Queue.add { dn; version; not_before; not_after } specs;
    Queue.length specs - 1
  in
  (* --- store-member roots ------------------------------------------- *)
  let make_population ~count ~actives ~shares ~in_aosp ~in_mozilla ~in_ios_fn () =
    (* [in_ios_fn i active] decides iOS membership per element *)
    Array.init count (fun i ->
        let name = fresh_name () in
        let display_name = match name with cn, _, _ -> cn in
        let active = i < actives in
        let weight = if active then shares.(i) else 0.0 in
        let slot =
          if display_name = firmaprofesional then
            (* the expired AOSP root the paper singles out (§2) *)
            plan
              ~not_before:(Ts.of_date 2001 10 24)
              ~not_after:(Ts.of_date 2013 10 24)
              (dn_of_name name)
          else plan (dn_of_name name)
        in
        fun authorities ->
          {
            id = -1;  (* minted once the full root array is assembled *)
            authority = authorities.(slot);
            display_name;
            in_aosp;
            in_mozilla;
            in_ios = in_ios_fn i active;
            traffic_weight = weight;
            extra = None;
            mozilla_variant = None;
          })
  in
  (* shared (AOSP ∩ Mozilla) populations per version of first appearance *)
  let shared_41 =
    make_population ~count:(fst (PD.aosp_version_delta PD.V4_1))
      ~actives:shared_41_active
      ~shares:(zipf_shares shared_41_active 1.0 PD.traffic_core)
      ~in_aosp:all_versions ~in_mozilla:true
      ~in_ios_fn:(fun i active -> active || i < shared_41_active + ios_shared_zeros)
      ()
  in
  let shared_42 =
    make_population ~count:(fst (PD.aosp_version_delta PD.V4_2)) ~actives:0
      ~shares:[||]
      ~in_aosp:(versions_from PD.V4_2) ~in_mozilla:true
      ~in_ios_fn:(fun _ _ -> false) ()
  in
  let n43 = fst (PD.aosp_version_delta PD.V4_3) in
  let shared_43 =
    make_population ~count:n43 ~actives:n43
      ~shares:(Array.make n43 (PD.traffic_aosp43_added /. float_of_int n43))
      ~in_aosp:(versions_from PD.V4_3) ~in_mozilla:true
      ~in_ios_fn:(fun _ _ -> true) ()
  in
  let shared_44 =
    make_population ~count:(fst (PD.aosp_version_delta PD.V4_4)) ~actives:1
      ~shares:[| PD.traffic_aosp44_added |]
      ~in_aosp:[ PD.V4_4 ] ~in_mozilla:true
      ~in_ios_fn:(fun _ _ -> true) ()
  in
  (* AOSP-only populations (government and specialty roots; iOS carries
     ten of them, the DoD pattern) *)
  let only_41 =
    make_population ~count:(snd (PD.aosp_version_delta PD.V4_1))
      ~actives:only_41_active
      ~shares:(zipf_shares only_41_active 1.0 PD.traffic_aosp_only)
      ~in_aosp:all_versions ~in_mozilla:false
      ~in_ios_fn:(fun i active -> active || i < ios_only_members) ()
  in
  let only_43 =
    make_population ~count:(snd (PD.aosp_version_delta PD.V4_3)) ~actives:0
      ~shares:[||] ~in_aosp:(versions_from PD.V4_3) ~in_mozilla:false
      ~in_ios_fn:(fun _ _ -> false) ()
  in
  let only_44 =
    make_population ~count:(snd (PD.aosp_version_delta PD.V4_4)) ~actives:0
      ~shares:[||] ~in_aosp:[ PD.V4_4 ] ~in_mozilla:false
      ~in_ios_fn:(fun _ _ -> false) ()
  in
  let mozilla_excl =
    make_population ~count:PD.mozilla_exclusive ~actives:0 ~shares:[||]
      ~in_aosp:[] ~in_mozilla:true ~in_ios_fn:(fun _ _ -> false) ()
  in
  (* --- Figure 2 extras ------------------------------------------------ *)
  (* iOS-exclusive actives and active iOS-only extras share the
     iOS-exclusive traffic bucket. *)
  let ios_only_extra_actives =
    Array.to_list PD.extras
    |> List.filter (fun (x : PD.extra_cert) -> x.xc_class = PD.Ios_only && x.xc_active)
    |> List.length
  in
  let ios_bucket =
    zipf_shares (ios_exclusive_active + ios_only_extra_actives) 1.0 PD.traffic_ios_exclusive
  in
  let ios_excl =
    make_population ~count:PD.ios_exclusive ~actives:ios_exclusive_active
      ~shares:(Array.sub ios_bucket 0 ios_exclusive_active)
      ~in_aosp:[] ~in_mozilla:false ~in_ios_fn:(fun _ _ -> true) ()
  in
  let moz_extra_shares =
    let n =
      Array.to_list PD.extras
      |> List.filter (fun (x : PD.extra_cert) ->
             x.xc_class = PD.Mozilla_and_ios && x.xc_active)
      |> List.length
    in
    zipf_shares n 1.0 PD.traffic_mozilla_extras
  in
  let android_extra_shares =
    let n =
      Array.to_list PD.extras
      |> List.filter (fun (x : PD.extra_cert) ->
             x.xc_class = PD.Android_only && x.xc_active)
      |> List.length
    in
    zipf_shares n 1.0 PD.traffic_android_device_only
  in
  let moz_rank = ref 0 and ios_rank = ref ios_exclusive_active and android_rank = ref 0 in
  let extra_roots =
    Array.map
      (fun (x : PD.extra_cert) ->
        let weight =
          if not x.xc_active then 0.0
          else begin
            match x.xc_class with
            | PD.Mozilla_and_ios ->
                let w = moz_extra_shares.(!moz_rank) in
                incr moz_rank;
                w
            | PD.Ios_only ->
                let w = ios_bucket.(!ios_rank) in
                incr ios_rank;
                w
            | PD.Android_only ->
                let w = android_extra_shares.(!android_rank) in
                incr android_rank;
                w
            | PD.Unrecorded -> 0.0
          end
        in
        let dn =
          (* the DoD root's full DN is quoted in the paper's footnote *)
          if x.xc_id = "b530fe64" then
            [ Dn.C "US"; Dn.O "U.S. Government"; Dn.OU "DoD"; Dn.OU "PKI";
              Dn.CN "DoD CLASS 3 Root CA" ]
          else Dn.make ~o:x.xc_name x.xc_name
        in
        let slot = plan dn in
        fun authorities ->
          {
            id = -1;
            authority = authorities.(slot);
            display_name = x.xc_name;
            in_aosp = [];
            in_mozilla = (x.xc_class = PD.Mozilla_and_ios);
            in_ios =
              (match x.xc_class with PD.Mozilla_and_ios | PD.Ios_only -> true | _ -> false);
            traffic_weight = weight;
            extra = Some x;
            mozilla_variant = None;
          })
      PD.extras
  in
  (* --- traffic-only private CAs, rooted-device CAs, the interceptor --- *)
  let rng_priv = Prng.split master "blueprint-private" in
  let private_slots =
    Array.init n_private_cas (fun i -> plan (Dn.make (Ca_names.private_ca rng_priv i)))
  in
  let rooted_slots =
    List.map (fun (name, _) -> (name, plan ~version:1 (Dn.make name))) PD.rooted_cas
  in
  let interceptor_slot =
    plan (Dn.make ~o:PD.interceptor_name (PD.interceptor_name ^ " Root CA"))
  in
  (* --- every self-signed authority, in one parallel batch ------------- *)
  (* 2014-era roots were overwhelmingly sha1WithRSA — which also lets
     the default 384-bit simulation keys hold the PKCS#1 padding. *)
  let digest = Tangled_hash.Digest_kind.SHA1 in
  let specs = Array.of_seq (Queue.to_seq specs) in
  let authorities =
    Parallel.tabulate ~jobs (Array.length specs) (fun slot ->
        let s = specs.(slot) in
        let serial = first_serial + slot in
        (* each key draws only from its own stream, split off by its
           serial, so no worker count can change an authority *)
        Authority.self_signed ~bits:key_bits ~serial:(B.of_int serial) ~digest
          ?version:s.version ?not_before:s.not_before ?not_after:s.not_after
          (Prng.split rng_keys (string_of_int serial))
          s.dn)
  in
  (* the rest of the build, and most of what uses a universe, runs on
     one domain, which idle workers would slow at every minor
     collection *)
  Parallel.release ();
  let finish drafts = Array.map (fun draft -> draft authorities) drafts in
  (* move the expired Firmaprofesional root into the zero-weight set:
     swap its activity with the last active slot if it landed active *)
  let shared_41 =
    let shared_41 = finish shared_41 in
    match
      Array.to_seq shared_41
      |> Seq.zip (Seq.ints 0)
      |> Seq.find (fun (_, r) -> r.display_name = firmaprofesional)
    with
    | Some (i, r) when r.traffic_weight > 0.0 ->
        (* hand its weight to the first zero-weight root and its iOS
           slot to the next root outside the iOS window, keeping both
           the active count and the iOS membership count intact *)
        let j = shared_41_active in
        let k = shared_41_active + ios_shared_zeros in
        let copy = Array.copy shared_41 in
        copy.(i) <- { r with traffic_weight = 0.0; in_ios = false };
        copy.(j) <- { copy.(j) with traffic_weight = r.traffic_weight };
        copy.(k) <- { copy.(k) with in_ios = true };
        copy
    | _ -> shared_41
  in
  let roots =
    Array.concat
      (shared_41
      :: List.map finish
           [ shared_42; shared_43; shared_44; only_41; only_43; only_44;
             mozilla_excl; ios_excl; extra_roots ])
  in
  (* Mozilla re-issues some shared roots (equivalent, byte-distinct):
     130 shared, 117 byte-identical across stores (§2). *)
  let roots =
    Array.mapi
      (fun i r ->
        if i < mozilla_reissued && r.in_mozilla && r.in_aosp <> [] then
          let renewed =
            Authority.renew
              ~serial:(B.of_int (10_000 + i))
              ~not_before:(Ts.of_date 2006 1 1)
              ~not_after:(Ts.of_date 2036 1 1)
              r.authority
          in
          { r with mozilla_variant = Some renewed.Authority.certificate }
        else r)
      roots
  in
  (* --- identity interning --------------------------------------------- *)
  (* mint dense ids in root-array order; Mozilla re-issues share their
     base root's (subject, modulus) key so no extra ids appear *)
  let interner = Interner.create ~capacity:1024 () in
  let roots =
    Array.map
      (fun r ->
        { r with id = Interner.intern interner (C.equivalence_key r.authority.Authority.certificate) })
      roots
  in
  let assigned = Array.fold_left (fun acc r -> acc +. r.traffic_weight) 0.0 roots in
  let private_mass = Stdlib.max 0.0 (1.0 -. assigned) in
  let private_shares = zipf_shares n_private_cas 1.0 private_mass in
  let private_cas =
    Array.mapi (fun i slot -> (authorities.(slot), private_shares.(i))) private_slots
  in
  let rooted_authorities =
    Array.of_list (List.map (fun (name, slot) -> (name, authorities.(slot))) rooted_slots)
  in
  let interceptor = authorities.(interceptor_slot) in
  (* every identity that can anchor a chain or appear in a device store
     gets an id: private CAs, rooted-device CAs, the interceptor *)
  let intern_authority (a : Authority.t) =
    ignore (Interner.intern interner (C.equivalence_key a.Authority.certificate))
  in
  Array.iter (fun (a, _) -> intern_authority a) private_cas;
  Array.iter (fun (_, a) -> intern_authority a) rooted_authorities;
  intern_authority interceptor;
  (* --- official stores ------------------------------------------------ *)
  let aosp_store v =
    let members =
      Array.to_list roots
      |> List.filter (fun r -> List.mem v r.in_aosp)
      |> List.map (fun r -> r.authority.Authority.certificate)
    in
    Rs.of_certs ("AOSP " ^ PD.version_to_string v) Rs.Aosp members
  in
  let aosp_41 = aosp_store PD.V4_1 in
  let aosp_42 = aosp_store PD.V4_2 in
  let aosp_43 = aosp_store PD.V4_3 in
  let aosp_44 = aosp_store PD.V4_4 in
  let aosp = function
    | PD.V4_1 -> aosp_41
    | PD.V4_2 -> aosp_42
    | PD.V4_3 -> aosp_43
    | PD.V4_4 -> aosp_44
  in
  let mozilla =
    Array.to_list roots
    |> List.filter (fun r -> r.in_mozilla)
    |> List.map (fun r ->
           match r.mozilla_variant with
           | Some v -> v
           | None -> r.authority.Authority.certificate)
    |> Rs.of_certs "Mozilla" Rs.Aosp
  in
  let ios7 =
    Array.to_list roots
    |> List.filter (fun r -> r.in_ios)
    |> List.map (fun r -> r.authority.Authority.certificate)
    |> Rs.of_certs "iOS 7" Rs.Aosp
  in
  let extra_by_id = Hashtbl.create 128 in
  Array.iter
    (fun r ->
      match r.extra with
      | Some x -> Hashtbl.replace extra_by_id x.PD.xc_id r
      | None -> ())
    roots;
  let root_of_id = Array.make (Interner.cardinal interner) None in
  Array.iter (fun r -> root_of_id.(r.id) <- Some r) roots;
  {
    seed;
    key_bits;
    roots;
    private_cas;
    rooted_authorities;
    interceptor;
    aosp;
    mozilla;
    ios7;
    extra_by_id;
    interner;
    root_of_id;
  }

let default = lazy (build ~seed:1 ())

let find_root_by_name t name =
  Array.to_seq t.roots |> Seq.find (fun r -> r.display_name = name)

let find_root_by_key t key =
  match Interner.find t.interner key with
  | Some id when id < Array.length t.root_of_id -> t.root_of_id.(id)
  | _ -> None

let store_of_name t = function
  | "aosp41" -> Some (t.aosp PD.V4_1)
  | "aosp42" -> Some (t.aosp PD.V4_2)
  | "aosp43" -> Some (t.aosp PD.V4_3)
  | "aosp44" -> Some (t.aosp PD.V4_4)
  | "mozilla" -> Some t.mozilla
  | "ios7" -> Some t.ios7
  | _ -> None

let store_of_category t label =
  let certs pred =
    Array.to_list t.roots |> List.filter pred
    |> List.map (fun r -> r.authority.Authority.certificate)
  in
  match label with
  | "Non AOSP and Non Mozilla root certs" ->
      certs (fun r -> r.extra <> None && not r.in_mozilla)
  | "Non AOSP root certs found on Mozilla's" ->
      certs (fun r -> r.extra <> None && r.in_mozilla)
  | "AOSP 4.4 and Mozilla root certs" ->
      certs (fun r -> List.mem PD.V4_4 r.in_aosp && r.in_mozilla)
  | "AOSP 4.1 certs" -> certs (fun r -> List.mem PD.V4_1 r.in_aosp)
  | "AOSP 4.4 certs" -> certs (fun r -> List.mem PD.V4_4 r.in_aosp)
  | "Aggregated Android root certs" ->
      certs (fun r -> List.mem PD.V4_4 r.in_aosp || r.extra <> None)
  | "Mozilla root store certs" -> certs (fun r -> r.in_mozilla)
  | "iOS 7 root store certs" -> certs (fun r -> r.in_ios)
  | other -> invalid_arg ("Blueprint.store_of_category: unknown label " ^ other)
