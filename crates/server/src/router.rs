//! Multi-schema dispatch: a shared, read-mostly table of routes, one per
//! registered schema id.
//!
//! A deployment serves more than one document type. Each route holds the
//! schema's [`SharedSchema`] hot-swap handle, the [`ServiceLimits`] its
//! documents are governed by, and an atomic count of the documents in
//! flight under it. The table is built at startup (`redet serve --schema
//! …` loads DTD files before binding the socket) and is read-only after
//! that, so every connection thread shares it without a lock:
//!
//! - [`SchemaRouter::admit`] is `E305` admission control — one atomic
//!   increment against the route's in-flight cap, released when the
//!   returned [`Admission`] drops;
//! - [`SchemaRouter::publish`] is one [`SharedSchema::publish`]: documents
//!   already admitted keep the `Arc<Schema>` they loaded, later admissions
//!   load the new one.
//!
//! Documents themselves are not routed here: each connection validates
//! its requests on its own [`Document`] per route, replaced when the
//! route's current schema is another artifact.

use redet_core::{Code, Diagnostic};
use redet_schema::registry::SharedSchema;
use redet_schema::{in_flight_refusal, Document, Schema, ServiceLimits};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// One registered schema id.
struct Route {
    id: String,
    schema: Arc<SharedSchema>,
    limits: ServiceLimits,
    /// Documents admitted under this route and not yet finished.
    in_flight: AtomicU32,
}

/// The table of schema routes; see the module docs.
#[derive(Default)]
pub struct SchemaRouter {
    routes: Vec<Route>,
}

/// One admitted document's claim on its route's in-flight budget,
/// released on drop.
pub struct Admission<'a> {
    route: &'a Route,
    index: usize,
}

impl Admission<'_> {
    /// The route's index, in registration order.
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }

    /// The route's currently published schema.
    #[must_use]
    pub fn schema(&self) -> Arc<Schema> {
        self.route.schema.load()
    }

    /// The limits documents under this route are governed by.
    #[must_use]
    pub fn limits(&self) -> ServiceLimits {
        self.route.limits
    }
}

impl Drop for Admission<'_> {
    fn drop(&mut self) {
        self.route.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

impl SchemaRouter {
    /// Creates an empty router.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `schema` under the wire id `id`, governed by `limits`,
    /// and returns the route's index. Ids must be unique
    /// ([`Code::DuplicateSchema`]) and the table is capped at `u16::MAX`
    /// routes.
    pub fn register(
        &mut self,
        id: impl Into<String>,
        schema: Arc<Schema>,
        limits: ServiceLimits,
    ) -> Result<u16, Diagnostic> {
        let id = id.into();
        if self.routes.iter().any(|route| route.id == id) {
            return Err(Diagnostic::new(
                Code::DuplicateSchema,
                format!("schema id '{id}' is already registered"),
            ));
        }
        let Ok(index) = u16::try_from(self.routes.len()) else {
            return Err(Diagnostic::new(
                Code::DuplicateSchema,
                "schema registry is full (65535 schemas)",
            ));
        };
        self.routes.push(Route {
            id,
            schema: Arc::new(SharedSchema::new(schema)),
            limits,
            in_flight: AtomicU32::new(0),
        });
        Ok(index)
    }

    /// Hot-swaps the schema registered under `id`: documents already
    /// admitted keep validating against the artifact they loaded, later
    /// admissions load `schema`, and the old artifact drops with its last
    /// holder. Returns the route's index; unknown ids refuse with
    /// [`Code::UnknownSchema`] — a publish never creates a new wire id, so
    /// a fleet's id set stays a startup decision.
    pub fn publish(&self, id: &str, schema: Arc<Schema>) -> Result<u16, Diagnostic> {
        let index = self.find(id)?;
        self.routes[index].schema.publish(schema);
        Ok(index as u16)
    }

    /// Number of registered schemas.
    #[must_use]
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Whether no schema is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// The registered schema ids, in registration (index) order.
    pub fn ids(&self) -> impl Iterator<Item = &str> {
        self.routes.iter().map(|route| route.id.as_str())
    }

    /// The limits of every route, in registration order.
    pub fn limits(&self) -> impl Iterator<Item = ServiceLimits> + '_ {
        self.routes.iter().map(|route| route.limits)
    }

    /// The index of the route registered under `id`, or the
    /// [`Code::UnknownSchema`] refusal.
    pub fn find(&self, id: &str) -> Result<usize, Diagnostic> {
        self.routes
            .iter()
            .position(|route| route.id == id)
            .ok_or_else(|| {
                Diagnostic::new(
                    Code::UnknownSchema,
                    format!("no schema registered under id '{id}'"),
                )
            })
    }

    /// The schema currently published under route `index`.
    ///
    /// # Panics
    /// Panics if `index` names no route.
    #[must_use]
    pub fn current(&self, index: usize) -> Arc<Schema> {
        self.routes[index].schema.load()
    }

    /// Admits one document under route `index`, or refuses with the
    /// service's own [`Code::ServiceOverloaded`] diagnostic when the
    /// route's in-flight cap is reached.
    ///
    /// # Panics
    /// Panics if `index` names no route.
    pub fn admit(&self, index: usize) -> Result<Admission<'_>, Diagnostic> {
        let route = &self.routes[index];
        let held = route.in_flight.fetch_add(1, Ordering::AcqRel);
        let admission = Admission { route, index };
        match route.limits.max_in_flight() {
            Some(max) if held >= max => Err(in_flight_refusal(max)),
            _ => Ok(admission),
        }
    }

    /// Validates one whole raw-byte document against the schema under
    /// `id`: admission, then one [`Document`]'s `feed_bytes` + `finish` —
    /// the loop the wire protocol runs per request.
    pub fn validate_bytes(&self, id: &str, bytes: &[u8]) -> Result<(), Diagnostic> {
        let admission = self.admit(self.find(id)?)?;
        let mut doc = Document::new(admission.schema(), admission.limits());
        let _ = doc.feed_bytes(bytes);
        doc.finish()
    }
}

impl std::fmt::Debug for SchemaRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchemaRouter")
            .field("schemas", &self.ids().collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire;
    use redet_schema::SchemaBuilder;

    fn pair_schema() -> Arc<Schema> {
        SchemaBuilder::new()
            .element("pair", "(left, right)")
            .element_empty("left")
            .element_empty("right")
            .build()
            .unwrap()
    }

    fn list_schema() -> Arc<Schema> {
        SchemaBuilder::new()
            .element("list", "(item)*")
            .element_empty("item")
            .build()
            .unwrap()
    }

    #[test]
    fn ids_route_to_their_schema() {
        let mut router = SchemaRouter::new();
        let limits = ServiceLimits::default();
        assert_eq!(router.register("pair", pair_schema(), limits).unwrap(), 0);
        assert_eq!(router.register("list", list_schema(), limits).unwrap(), 1);
        assert_eq!(router.len(), 2);
        assert_eq!(router.ids().collect::<Vec<_>>(), ["pair", "list"]);
        assert_eq!(router.find("list").unwrap(), 1);

        // A pair document is not a list document.
        assert!(router
            .validate_bytes("pair", b"<pair><left/><right/></pair>")
            .is_ok());
        let err = router
            .validate_bytes("list", b"<pair><left/><right/></pair>")
            .unwrap_err();
        assert_eq!(err.code(), Code::UnknownElement);
    }

    #[test]
    fn unknown_and_duplicate_schemas_are_diagnostics() {
        let mut router = SchemaRouter::new();
        router
            .register("pair", pair_schema(), ServiceLimits::default())
            .unwrap();
        let dup = router
            .register("pair", list_schema(), ServiceLimits::default())
            .unwrap_err();
        assert_eq!(dup.code(), Code::DuplicateSchema);
        let unknown = router.validate_bytes("nope", b"<pair/>").unwrap_err();
        assert_eq!(unknown.code(), Code::UnknownSchema);
        assert_eq!(
            wire::render_diagnostic(&unknown),
            "err E103 - no schema registered under id 'nope'"
        );
    }

    #[test]
    fn publish_swaps_in_flight_safe() {
        let mut router = SchemaRouter::new();
        router
            .register("doc", pair_schema(), ServiceLimits::default())
            .unwrap();

        // Admit under v1 (pair) and feed half of a pair document.
        let old = router.admit(0).unwrap();
        let mut doc = Document::new(old.schema(), old.limits());
        let _ = doc.feed_bytes(b"<pair><left/>");

        // Hot-swap v2 (list) mid-flight; the index is stable.
        assert_eq!(router.publish("doc", list_schema()).unwrap(), 0);

        // The in-flight document still validates as a pair…
        let _ = doc.feed_bytes(b"<right/></pair>");
        assert!(doc.finish().is_ok());
        drop(old);

        // …while a post-publish admission rejects it under the list schema.
        let err = router
            .validate_bytes("doc", b"<pair><left/><right/></pair>")
            .unwrap_err();
        assert_eq!(err.code(), Code::UnknownElement);

        let unknown = router.publish("nope", pair_schema()).unwrap_err();
        assert_eq!(unknown.code(), Code::UnknownSchema);
    }

    #[test]
    fn admission_is_capped_per_route() {
        let limits = ServiceLimits::default().with_max_in_flight(1);
        let mut router = SchemaRouter::new();
        router.register("pair", pair_schema(), limits).unwrap();
        router.register("list", list_schema(), limits).unwrap();
        let held = router.admit(0).unwrap();
        let refusal = router.admit(0).err().unwrap();
        assert_eq!(
            wire::render_diagnostic(&refusal),
            "err E305 - service is at its in-flight handle cap of 1"
        );
        // The cap is per route, and a refusal holds nothing.
        assert!(router.admit(1).is_ok());
        drop(held);
        assert!(router.admit(0).is_ok());
    }
}
