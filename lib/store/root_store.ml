module C = Tangled_x509.Certificate
module Dn = Tangled_x509.Dn

type provenance =
  | Aosp
  | Manufacturer of string
  | Operator of string
  | User
  | App of string

let provenance_to_string = function
  | Aosp -> "AOSP"
  | Manufacturer m -> "manufacturer:" ^ m
  | Operator o -> "operator:" ^ o
  | User -> "user"
  | App a -> "app:" ^ a

type entry = { cert : C.t; provenance : provenance; enabled : bool }

type actor =
  | System_image
  | Settings_ui
  | Privileged_app of string
  | Unprivileged_app of string

let actor_to_string = function
  | System_image -> "system image"
  | Settings_ui -> "settings UI"
  | Privileged_app a -> "privileged app " ^ a
  | Unprivileged_app a -> "unprivileged app " ^ a

type error =
  | Permission_denied of actor * string
  | Not_found_in_store of string
  | Duplicate of string

let error_to_string = function
  | Permission_denied (actor, what) ->
      Printf.sprintf "permission denied: %s may not %s" (actor_to_string actor) what
  | Not_found_in_store subject -> Printf.sprintf "certificate not in store: %s" subject
  | Duplicate subject -> Printf.sprintf "certificate already in store: %s" subject

type journal_event = {
  actor : actor;
  action : [ `Add | `Remove | `Disable | `Enable ];
  subject : string;
}

module Smap = Map.Make (String)

type t = {
  name : string;
  by_key : entry Smap.t;
  order : string list;  (** insertion order of equivalence keys, reversed *)
  events : journal_event list;  (** newest first *)
}

let empty name = { name; by_key = Smap.empty; order = []; events = [] }
let name t = t.name

let key_of cert = C.equivalence_key cert

let raw_add t provenance cert =
  let key = key_of cert in
  if Smap.mem key t.by_key then t
  else
    {
      t with
      by_key = Smap.add key { cert; provenance; enabled = true } t.by_key;
      order = key :: t.order;
    }

let of_certs name provenance certs =
  List.fold_left (fun t c -> raw_add t provenance c) (empty name) certs

(* Android's access rules (§2): the factory image defines the store;
   afterwards the Settings UI can add user certificates and toggle any;
   only root-privileged code can do more — which is precisely the attack
   surface §6 documents. *)
let may actor action =
  match (actor, action) with
  | System_image, _ -> true
  | Privileged_app _, _ -> true
  | Settings_ui, (`Add | `Disable | `Enable) -> true
  | Settings_ui, `Remove -> false
  | Unprivileged_app _, _ -> false

let journalled t actor action subject =
  match actor with
  | System_image -> t
  | _ -> { t with events = { actor; action; subject } :: t.events }

let add t actor provenance cert =
  if not (may actor `Add) then Error (Permission_denied (actor, "add certificates"))
  else begin
    let key = key_of cert in
    if Smap.mem key t.by_key then Error (Duplicate (Dn.to_string cert.C.subject))
    else begin
      let provenance =
        (* the Settings UI can only create user entries, whatever is claimed *)
        match actor with Settings_ui -> User | _ -> provenance
      in
      let t =
        {
          t with
          by_key = Smap.add key { cert; provenance; enabled = true } t.by_key;
          order = key :: t.order;
        }
      in
      Ok (journalled t actor `Add (Dn.to_string cert.C.subject))
    end
  end

let update_entry t actor action cert f =
  let verb =
    match action with
    | `Remove -> "remove certificates"
    | `Disable -> "disable certificates"
    | `Enable -> "enable certificates"
    | `Add -> "add certificates"
  in
  if not (may actor action) then Error (Permission_denied (actor, verb))
  else begin
    let key = key_of cert in
    match Smap.find_opt key t.by_key with
    | None -> Error (Not_found_in_store (Dn.to_string cert.C.subject))
    | Some entry ->
        let t = f t key entry in
        Ok (journalled t actor action (Dn.to_string cert.C.subject))
  end

let remove t actor cert =
  update_entry t actor `Remove cert (fun t key _ ->
      {
        t with
        by_key = Smap.remove key t.by_key;
        order = List.filter (fun k -> k <> key) t.order;
      })

let disable t actor cert =
  update_entry t actor `Disable cert (fun t key entry ->
      { t with by_key = Smap.add key { entry with enabled = false } t.by_key })

let enable t actor cert =
  update_entry t actor `Enable cert (fun t key entry ->
      { t with by_key = Smap.add key { entry with enabled = true } t.by_key })

let merge a b =
  List.fold_left
    (fun acc key ->
      let entry = Smap.find key b.by_key in
      if Smap.mem key acc.by_key then acc
      else
        {
          acc with
          by_key = Smap.add key entry acc.by_key;
          order = key :: acc.order;
        })
    a (List.rev b.order)

let mem_key t key =
  match Smap.find_opt key t.by_key with
  | Some entry -> entry.enabled
  | None -> false

let id_set interner t =
  let module I = Tangled_engine.Interner in
  let module S = Tangled_engine.Id_set in
  let set = S.create (I.cardinal interner) in
  Smap.iter
    (fun key entry ->
      if entry.enabled then
        (* keys the universe never interned (e.g. user-imported PEM)
           can anchor nothing the coverage index knows about *)
        match I.find interner key with
        | Some id -> S.add set id
        | None -> ())
    t.by_key;
  set

let mem t cert = mem_key t (key_of cert)

let entries t =
  List.rev_map (fun key -> Smap.find key t.by_key) t.order

let certs t =
  entries t |> List.filter (fun e -> e.enabled) |> List.map (fun e -> e.cert)

let find_by_subject t dn =
  entries t
  |> List.filter (fun e -> e.enabled && Dn.equal e.cert.C.subject dn)

let cardinal t = Smap.fold (fun _ e acc -> if e.enabled then acc + 1 else acc) t.by_key 0

let provenance_counts t =
  let tbl = Hashtbl.create 7 in
  Smap.iter
    (fun _ e ->
      if e.enabled then
        Hashtbl.replace tbl e.provenance
          (1 + Option.value ~default:0 (Hashtbl.find_opt tbl e.provenance)))
    t.by_key;
  Hashtbl.fold (fun p n acc -> (p, n) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> Stdlib.compare b a)

let diff device baseline =
  let additions =
    certs device |> List.filter (fun c -> not (mem_key baseline (key_of c)))
  in
  let missing =
    certs baseline |> List.filter (fun c -> not (mem_key device (key_of c)))
  in
  (additions, missing)

let journal t = List.rev t.events

let to_pem t =
  certs t |> List.map Tangled_x509.Pem.encode_certificate |> String.concat ""

let of_pem name provenance pem =
  match Tangled_x509.Pem.decode_all pem with
  | Error _ as e -> e
  | Ok blocks ->
      let rec load acc n = function
        | [] -> Ok (of_certs name provenance (List.rev acc))
        | ("CERTIFICATE", der) :: rest -> (
            match C.decode der with
            | Ok cert -> load (cert :: acc) (n + 1) rest
            | Error e -> Error (Printf.sprintf "block %d: %s" n e))
        | _ :: rest -> load acc (n + 1) rest
      in
      load [] 1 blocks
