module C = Tangled_x509.Certificate
module Dn = Tangled_x509.Dn

type scope =
  | Tls_server
  | Code_signing
  | Email
  | Device_services

let all_scopes = [ Tls_server; Code_signing; Email; Device_services ]

let contains_ci hay needle =
  let lower = String.lowercase_ascii hay in
  let n = String.length needle and h = String.length lower in
  let rec go i = i + n <= h && (String.sub lower i n = needle || go (i + 1)) in
  go 0

(* Subject keywords of the special-purpose roots §5.1/§5.2 discuss. *)
let device_service_markers =
  [ "fota"; "supl"; "uti"; "operator domain"; "widget"; "dnas"; "e2e"; "open channel" ]

let code_signing_markers =
  [ "code"; "software publisher"; "timestamp"; "adobe"; "true credentials"; "mobile device" ]

let email_markers = [ "freemail"; "email"; "keymail"; "client" ]

let infer cert =
  match cert.C.extensions.C.ext_key_usage with
  | Some ekus ->
      List.filter_map
        (function
          | C.Server_auth -> Some Tls_server
          | C.Code_signing -> Some Code_signing
          | C.Email_protection -> Some Email
          | C.Time_stamping -> Some Code_signing
          | C.Client_auth -> Some Email)
        ekus
      |> List.sort_uniq Stdlib.compare
  | None ->
      let subject = Dn.to_string cert.C.subject in
      let matched markers = List.exists (contains_ci subject) markers in
      if matched device_service_markers then [ Device_services ]
      else if matched code_signing_markers then [ Code_signing ]
      else if matched email_markers then [ Email ]
      else
        (* no signal: Android's behaviour — trusted for everything *)
        all_scopes

let restrict store scope scopes_of =
  List.fold_left
    (fun acc cert ->
      if List.mem scope (scopes_of cert) then acc
      else
        match Root_store.disable acc (Root_store.Privileged_app "platform") cert with
        | Ok acc -> acc
        | Error _ -> acc)
    store (Root_store.certs store)
