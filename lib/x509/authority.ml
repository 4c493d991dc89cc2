module B = Tangled_numeric.Bigint
module Dk = Tangled_hash.Digest_kind
module Rsa = Tangled_crypto.Rsa
module Ts = Tangled_util.Timestamp
module C = Certificate

type t = { certificate : C.t; key : Rsa.private_key }

let default_not_before = Ts.of_date 2000 1 1
let default_not_after = Ts.of_date 2030 1 1

(* memoised on the key record: the Notary's CA pool hashes the same
   modulus for every one of its hundreds of thousands of leaves *)
let key_id pub = Rsa.modulus_sha1 pub

let sign_tbs ~key ~digest tbs_der = Rsa.sign key ~digest tbs_der

let assemble_exn ~tbs_der ~signature_alg ~signature =
  match C.assemble ~tbs_der ~signature_alg ~signature with
  | Ok cert -> cert
  | Error msg -> invalid_arg ("Authority: internal assembly failure: " ^ msg)

let self_signed ?(bits = 512) ?(serial = B.one) ?(digest = Dk.SHA256) ?path_len
    ?(not_before = default_not_before) ?(not_after = default_not_after)
    ?(version = 3) rng dn =
  let key = Rsa.generate rng ~bits in
  let extensions =
    if version = 1 then C.no_extensions
    else
      {
        C.no_extensions with
        basic_constraints = Some (true, path_len);
        key_usage = Some [ C.Key_cert_sign; C.Crl_sign ];
        subject_key_id = Some (key_id key.pub);
      }
  in
  let tbs_der =
    C.build_tbs ~version ~serial ~signature_alg:digest ~issuer:dn ~not_before
      ~not_after ~subject:dn ~public_key:key.pub ~extensions
  in
  let signature = sign_tbs ~key ~digest tbs_der in
  { certificate = assemble_exn ~tbs_der ~signature_alg:digest ~signature; key }

let issue_intermediate ?(bits = 512) ?(serial = B.two) ?(digest = Dk.SHA256)
    ?path_len ?(not_before = default_not_before) ?(not_after = default_not_after)
    ?key rng ~parent dn =
  let key = match key with Some k -> k | None -> Rsa.generate rng ~bits in
  let extensions =
    {
      C.no_extensions with
      basic_constraints = Some (true, path_len);
      key_usage = Some [ C.Key_cert_sign; C.Crl_sign ];
      subject_key_id = Some (key_id key.pub);
      authority_key_id = Some (key_id parent.key.pub);
    }
  in
  let tbs_der =
    C.build_tbs ~version:3 ~serial ~signature_alg:digest
      ~issuer:parent.certificate.C.subject ~not_before ~not_after ~subject:dn
      ~public_key:key.pub ~extensions
  in
  let signature = sign_tbs ~key:parent.key ~digest tbs_der in
  { certificate = assemble_exn ~tbs_der ~signature_alg:digest ~signature; key }

let issue_leaf ?(bits = 512) ?(serial = B.of_int 3) ?(digest = Dk.SHA256)
    ?(ekus = [ C.Server_auth ]) ?(not_before = default_not_before)
    ?(not_after = default_not_after) ?key rng ~parent ~dns_names dn =
  let key = match key with Some k -> k | None -> Rsa.generate rng ~bits in
  let extensions =
    {
      C.basic_constraints = Some (false, None);
      key_usage = Some [ C.Digital_signature; C.Key_encipherment ];
      ext_key_usage = Some ekus;
      subject_key_id = Some (key_id key.pub);
      authority_key_id = Some (key_id parent.key.pub);
      subject_alt_names = dns_names;
    }
  in
  let tbs_der =
    C.build_tbs ~version:3 ~serial ~signature_alg:digest
      ~issuer:parent.certificate.C.subject ~not_before ~not_after ~subject:dn
      ~public_key:key.pub ~extensions
  in
  let signature = sign_tbs ~key:parent.key ~digest tbs_der in
  (* trust the fields just encoded instead of re-decoding our own DER:
     the bulk path issues hundreds of thousands of leaves *)
  C.assemble_trusted ~version:3 ~serial ~signature_alg:digest
    ~issuer:parent.certificate.C.subject ~not_before ~not_after ~subject:dn
    ~public_key:key.pub ~extensions ~tbs_der ~signature

let renew ?(serial = B.of_int 7) ?(not_before = default_not_before)
    ?(not_after = default_not_after) t =
  let cert = t.certificate in
  let tbs_der =
    C.build_tbs ~version:cert.C.version ~serial ~signature_alg:cert.C.signature_alg
      ~issuer:cert.C.subject ~not_before ~not_after ~subject:cert.C.subject
      ~public_key:t.key.pub ~extensions:cert.C.extensions
  in
  let digest = cert.C.signature_alg in
  let signature = sign_tbs ~key:t.key ~digest tbs_der in
  { certificate = assemble_exn ~tbs_der ~signature_alg:digest ~signature; key = t.key }

let reissue_as ?(serial = B.of_int 4096) ?(bits = 512) rng ~parent (orig : C.t) =
  let key = Rsa.generate rng ~bits in
  let extensions =
    {
      orig.C.extensions with
      subject_key_id = Some (key_id key.pub);
      authority_key_id = Some (key_id parent.key.pub);
    }
  in
  let tbs_der =
    C.build_tbs ~version:3 ~serial ~signature_alg:parent.certificate.C.signature_alg
      ~issuer:parent.certificate.C.subject ~not_before:orig.C.not_before
      ~not_after:orig.C.not_after ~subject:orig.C.subject ~public_key:key.pub
      ~extensions
  in
  let digest = parent.certificate.C.signature_alg in
  let signature = sign_tbs ~key:parent.key ~digest tbs_der in
  assemble_exn ~tbs_der ~signature_alg:digest ~signature
