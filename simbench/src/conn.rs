//! One statement interface over the two public entry points the
//! workloads drive: `SimClient` (the wire) and an in-process `Session`.

use sim_client::{ClientError, Reply, SimClient};
use sim_core::{ExecResult, QueryOutput, Session, SimError};

/// A failed operation, with its stable `SIM-*` code when it has one.
#[derive(Debug, Clone)]
pub struct OpError {
    pub code: Option<String>,
    pub message: String,
}

impl std::fmt::Display for OpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.code {
            Some(code) => write!(f, "{code}: {}", self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl From<ClientError> for OpError {
    fn from(e: ClientError) -> OpError {
        OpError { code: e.code().map(str::to_owned), message: e.to_string() }
    }
}

impl From<SimError> for OpError {
    fn from(e: SimError) -> OpError {
        OpError { code: e.code().map(str::to_owned), message: e.to_string() }
    }
}

fn unexpected(message: &str) -> OpError {
    OpError { code: None, message: message.to_owned() }
}

pub trait Conn {
    fn query(&mut self, dml: &str) -> Result<QueryOutput, OpError>;
    /// Run one update; returns the touched-entity count.
    fn execute(&mut self, dml: &str) -> Result<u64, OpError>;
    /// Prepare `dml` as hot statement `slot` (slots are dense from 0).
    fn prepare(&mut self, slot: usize, dml: &str) -> Result<(), OpError>;
    fn exec_prepared(&mut self, slot: usize) -> Result<QueryOutput, OpError>;
    fn begin(&mut self) -> Result<(), OpError>;
    fn commit(&mut self) -> Result<(), OpError>;
    fn abort(&mut self) -> Result<(), OpError>;
}

/// A wire connection to `sim-server`.
pub struct Wire {
    pub client: SimClient,
    prepared: Vec<u64>,
}

impl Wire {
    pub fn new(client: SimClient) -> Wire {
        Wire { client, prepared: Vec::new() }
    }
}

impl Conn for Wire {
    fn query(&mut self, dml: &str) -> Result<QueryOutput, OpError> {
        Ok(self.client.query(dml)?)
    }

    fn execute(&mut self, dml: &str) -> Result<u64, OpError> {
        Ok(self.client.execute(dml)?)
    }

    fn prepare(&mut self, slot: usize, dml: &str) -> Result<(), OpError> {
        let id = self.client.prepare(dml)?;
        self.prepared.resize(self.prepared.len().max(slot + 1), 0);
        self.prepared[slot] = id;
        Ok(())
    }

    fn exec_prepared(&mut self, slot: usize) -> Result<QueryOutput, OpError> {
        let id = *self.prepared.get(slot).ok_or_else(|| unexpected("unprepared slot"))?;
        match self.client.exec_prepared(id)? {
            Reply::Rows { output, .. } => Ok(output),
            Reply::Ack(_) => Err(unexpected("expected rows, got ack")),
        }
    }

    fn begin(&mut self) -> Result<(), OpError> {
        Ok(self.client.begin()?)
    }

    fn commit(&mut self) -> Result<(), OpError> {
        Ok(self.client.commit()?)
    }

    fn abort(&mut self) -> Result<(), OpError> {
        Ok(self.client.abort()?)
    }
}

/// An in-process session of a `ConcurrentDb`.
pub struct Local {
    pub session: Session,
    prepared: Vec<String>,
}

impl Local {
    pub fn new(session: Session) -> Local {
        Local { session, prepared: Vec::new() }
    }
}

impl Conn for Local {
    fn query(&mut self, dml: &str) -> Result<QueryOutput, OpError> {
        Ok(self.session.query(dml)?)
    }

    fn execute(&mut self, dml: &str) -> Result<u64, OpError> {
        match self.session.run_one(dml)? {
            ExecResult::Updated(n) => Ok(n as u64),
            ExecResult::Rows(_) => Err(unexpected("expected an update, got rows")),
        }
    }

    fn prepare(&mut self, slot: usize, dml: &str) -> Result<(), OpError> {
        let canonical = self.session.prepare(dml)?;
        self.prepared.resize(self.prepared.len().max(slot + 1), String::new());
        self.prepared[slot] = canonical;
        Ok(())
    }

    fn exec_prepared(&mut self, slot: usize) -> Result<QueryOutput, OpError> {
        let text = self.prepared.get(slot).ok_or_else(|| unexpected("unprepared slot"))?;
        Ok(self.session.query(text)?)
    }

    fn begin(&mut self) -> Result<(), OpError> {
        Ok(self.session.begin()?)
    }

    fn commit(&mut self) -> Result<(), OpError> {
        Ok(self.session.commit()?)
    }

    fn abort(&mut self) -> Result<(), OpError> {
        Ok(self.session.abort()?)
    }
}
