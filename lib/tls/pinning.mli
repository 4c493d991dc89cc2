(** Certificate pinning (§2, §7).

    The paper notes that the intercepting proxy whitelists exactly the
    domains whose apps pin their certificates (Facebook, Twitter, most
    Google services) — interception there would hard-fail regardless of
    the root store.  This module models an app pin-set and evaluates a
    handshake against it, so the whitelist's rationale can be measured. *)

type pinset = {
  app : string;
  hosts : (string * int) list;  (** endpoints the app talks to *)
  pins : string list;           (** accepted SPKI digests (SHA-256 of the
                                    issuer public-key modulus chain) *)
}

val pin_chain : Tangled_x509.Certificate.t list -> string list
(** Pins of every certificate in a presented chain; a certificate's
    pin is SHA-256 over its subject public key. *)

val of_world : Endpoint.world -> pinset list
(** Build the era's pinning apps from the world: one pin-set per
    whitelisted-domain owner (Google, Facebook, Twitter), pinning the
    genuine chains those endpoints serve. *)

type verdict =
  | Pin_ok
  | Pin_violation
      (** no pinned key appears in the presented chain: the app refuses
          the connection even if the store trusts the chain *)

val evaluate : pinset -> Handshake.outcome -> verdict option
(** [None] when the outcome's endpoint is not one of the app's hosts. *)

val violations :
  pinset list -> Handshake.outcome list -> (string * string * int) list
(** [(app, host, port)] for every pin violation across the probe set. *)
