module Prng = Tangled_util.Prng
module Id_set = Tangled_engine.Id_set
module Blueprint = Tangled_pki.Blueprint
module PD = Tangled_pki.Paper_data
module Root_store = Tangled_store.Root_store
module Notary = Tangled_notary.Notary
module Arena = Tangled_x509.Arena

type handles = { mutable a : int array; mutable n : int }

let handles_create () = { a = Array.make 64 0; n = 0 }

let handles_push h v =
  if h.n = Array.length h.a then begin
    let a' = Array.make (2 * h.n) 0 in
    Array.blit h.a 0 a' 0 h.n;
    h.a <- a'
  end;
  h.a.(h.n) <- v;
  h.n <- h.n + 1

type entry = {
  log : Log.t;
  policy : Id_set.t;
  accepted_roots : int;
  mutable submitted : int;
}

type t = {
  universe : Blueprint.t;
  notary : Notary.t;
  fleet : entry array;
  handle_maps : handles array;  (** per entry: leaf index -> arena handle *)
  logged : Id_set.t;
}

let entries t = t.fleet
let n_logs t = Array.length t.fleet

(* admission fractions spread linearly over this range *)
let min_admit = 0.55
let max_admit = 0.90

let build ?(n_logs = 3) ~seed (universe : Blueprint.t) notary =
  if n_logs < 1 then invalid_arg "Fleet.build: n_logs must be >= 1";
  let base = Prng.create seed in
  let n_roots = Array.length universe.Blueprint.roots in
  let fleet =
    Array.init n_logs (fun j ->
        let frac =
          if n_logs = 1 then max_admit
          else
            min_admit
            +. (max_admit -. min_admit)
               *. float_of_int j
               /. float_of_int (n_logs - 1)
        in
        let rng = Prng.split base (Printf.sprintf "ct-log-%d" j) in
        let policy = Id_set.create n_roots in
        Array.iter
          (fun (r : Blueprint.root) ->
            if Prng.bernoulli rng frac then Id_set.add policy r.Blueprint.id)
          universe.Blueprint.roots;
        {
          log = Log.create ~name:(Printf.sprintf "ct%d" j) ();
          policy;
          accepted_roots = Id_set.cardinal policy;
          submitted = 0;
        })
  in
  let handle_maps = Array.init n_logs (fun _ -> handles_create ()) in
  let logged = Id_set.create n_roots in
  let arena = Notary.arena notary in
  (* Submission pass: handle order over the jobs-invariant arena, so
     every log's head is independent of how the corpus was built. *)
  let total = Notary.total notary in
  for h = 0 to total - 1 do
    let anchor = Notary.anchor_id notary h in
    if anchor >= 0 then begin
      let der = lazy (Arena.der arena h) in
      Array.iteri
        (fun j e ->
          if Id_set.mem e.policy anchor then begin
            let (_ : int) = Log.append e.log (Lazy.force der) in
            handles_push handle_maps.(j) h;
            e.submitted <- e.submitted + 1;
            Id_set.add logged anchor
          end)
        fleet
    end
  done;
  { universe; notary; fleet; handle_maps; logged }

let find_log t name =
  let found = ref None in
  Array.iter
    (fun e -> if !found = None && String.equal (Log.name e.log) name then found := Some e)
    t.fleet;
  !found

let leaf_der t e i =
  let j = ref (-1) in
  Array.iteri (fun k e' -> if e' == e then j := k) t.fleet;
  if !j < 0 then None
  else begin
    let hm = t.handle_maps.(!j) in
    if i < 0 || i >= hm.n then None
    else Some (Arena.der (Notary.arena t.notary) hm.a.(i))
  end

type store_row = {
  store_name : string;
  roots : int;
  accepted : int;
  logged : int;
  dark : int;
  dark_names : string list;
}

let store_visibility t name store =
  let ids = Root_store.id_set t.universe.Blueprint.interner store in
  let roots = Id_set.cardinal ids in
  let accepted = ref 0 and logged = ref 0 in
  let dark = ref [] in
  Id_set.iter
    (fun id ->
      let in_any =
        Array.exists (fun e -> Id_set.mem e.policy id) t.fleet
      in
      if in_any then incr accepted;
      if Id_set.mem t.logged id then incr logged
      else begin
        let display =
          match
            if id < Array.length t.universe.Blueprint.root_of_id then
              t.universe.Blueprint.root_of_id.(id)
            else None
          with
          | Some r -> r.Blueprint.display_name
          | None -> Printf.sprintf "id:%d" id
        in
        dark := display :: !dark
      end)
    ids;
  let dark_names =
    let all = List.sort String.compare !dark in
    List.filteri (fun i _ -> i < 8) all
  in
  {
    store_name = name;
    roots;
    accepted = !accepted;
    logged = !logged;
    dark = roots - !logged;
    dark_names;
  }

let official_visibility t =
  let u = t.universe in
  List.map
    (fun (name, store) -> store_visibility t name store)
    ([
       ("AOSP 4.1", u.Blueprint.aosp PD.V4_1);
       ("AOSP 4.2", u.Blueprint.aosp PD.V4_2);
       ("AOSP 4.3", u.Blueprint.aosp PD.V4_3);
       ("AOSP 4.4", u.Blueprint.aosp PD.V4_4);
       ("Mozilla", u.Blueprint.mozilla);
       ("iOS 7", u.Blueprint.ios7);
     ])
