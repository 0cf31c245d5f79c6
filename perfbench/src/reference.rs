//! Reference answers from in-process `Session`s built with the daemon's
//! `SessionConfig`, compared bit for bit with what the daemon served.

use mnn_dataset::WordId;
use mnn_memnn::MemNet;
use mnn_serve::{Session, SessionConfig};

/// `[tenant][question]` → (answer word, probability bits).
pub type Answers = Vec<Vec<(u32, u32)>>;

/// Answers every question in `questions` for each tenant after it observed
/// `streams[tenant]` in order. Tenants are built one at a time, so only one
/// tenant's memory is resident at once.
///
/// # Errors
///
/// A session error, described.
pub fn answers(
    model: &MemNet,
    config: SessionConfig,
    streams: &[Vec<&[WordId]>],
    questions: &[Vec<WordId>],
) -> Result<Answers, String> {
    streams
        .iter()
        .map(|stream| {
            let mut session = Session::new(model.clone(), config).map_err(|e| e.to_string())?;
            for sentence in stream {
                session.observe(sentence).map_err(|e| e.to_string())?;
            }
            questions
                .iter()
                .map(|q| {
                    session
                        .ask(q)
                        .map(|a| (a.word, a.probability.to_bits()))
                        .map_err(|e| e.to_string())
                })
                .collect()
        })
        .collect()
}
